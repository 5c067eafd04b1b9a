// Package obs is the simulator's observability layer: views derived
// from the flight spine (internal/obs/flight) — the Chrome trace-event
// export for Perfetto and the online per-transaction miss-latency phase
// breakdown — plus a registry of named metrics sampled on the timeline
// hook and the live metrics endpoint.
//
// The layer is strictly zero-cost when disabled: every emit site in the
// simulator guards the call with a single nil check, and nothing here is
// constructed unless an Enable* method was called on the system.
//
// The package deliberately knows nothing about the coherence protocol:
// records carry small integer fields and the caller supplies the
// message vocabulary at export time, so core can depend on obs without
// a cycle.
package obs
