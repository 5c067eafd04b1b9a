// Package obs is the simulator's observability layer: views derived
// from the flight spine (internal/obs/flight) — the Chrome trace-event
// export for Perfetto and the online per-transaction miss-latency phase
// breakdown — plus a registry of named metrics sampled on the timeline
// hook and the live metrics endpoint.
//
// Nothing here is built unless an Enable* method was called on the
// system; the latency fold subscribes to the machine's one emit, so a
// run without it pays one kind-mask test per potential record.
//
// The package deliberately knows nothing about the coherence protocol:
// records carry small integer fields and the caller supplies the
// message vocabulary at export time, so core can depend on obs without
// a cycle.
package obs
