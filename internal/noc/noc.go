// Package noc models the on-chip interconnect of Table 4: a 4x4 mesh
// with 16-byte flits, 2-cycle links (the NoC runs at 1.5 GHz, half the
// 3 GHz core clock, so one link traversal costs 4 core cycles), and
// dimension-ordered XY routing. Messages between a (src, dst, vnet)
// pair are delivered in FIFO order, which is the ordering property the
// protocol's race handling relies on — the same property GEMS' Garnet
// network provides.
//
// The mesh accounts flit-hops, the paper's Figure 15 proxy for
// interconnect dynamic energy.
package noc

import (
	"fmt"

	"protozoa/internal/engine"
	"protozoa/internal/stats"
)

// DefaultFlitBytes is the Table 4 flit size.
const DefaultFlitBytes = 16

// Topology selects the interconnect shape.
type Topology uint8

const (
	// TopoMesh is the paper's 4x4 mesh with XY routing (default).
	TopoMesh Topology = iota
	// TopoRing is a bidirectional ring: cheaper links, more hops —
	// the layout many commercial CMPs of the era shipped.
	TopoRing
	// TopoCrossbar gives every pair a direct link: one hop, no shared
	// contention — an idealized upper bound on the interconnect.
	TopoCrossbar
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopoMesh:
		return "mesh"
	case TopoRing:
		return "ring"
	case TopoCrossbar:
		return "crossbar"
	}
	return "Topology(?)"
}

// Config sizes a mesh.
type Config struct {
	Topology   Topology     // interconnect shape (default mesh)
	DimX, DimY int          // mesh dimensions; DimX*DimY nodes
	FlitBytes  int          // flit size in bytes
	HopLatency engine.Cycle // core cycles per link traversal
	RouterLat  engine.Cycle // fixed per-message pipeline latency
	SerialLat  engine.Cycle // extra core cycles per flit beyond the first
	LocalLat   engine.Cycle // latency when src == dst (same tile)

	// ModelContention serializes messages over shared mesh links
	// (wormhole-style: a message occupies each link of its XY path for
	// its flit count), so hot links add queueing delay — the network
	// contention the paper's industry report motivates. Off by default:
	// the baseline evaluation model is latency/FIFO only.
	ModelContention bool
}

// DefaultConfig is the paper's 4x4 mesh with 2-cycle links at 1.5 GHz,
// expressed in 3 GHz core cycles.
func DefaultConfig() Config {
	return Config{
		DimX: 4, DimY: 4,
		FlitBytes:  DefaultFlitBytes,
		HopLatency: 4, // 2 NoC cycles x 2 core cycles each
		RouterLat:  2,
		SerialLat:  2,
		LocalLat:   1,
	}
}

// numVnets is the number of virtual networks the mesh tracks FIFO
// state for (requests, forwards, responses).
const numVnets = 3

// Mesh is the interconnect instance. It is not safe for concurrent
// use; the whole simulator is single-goroutine by design.
//
// FIFO-channel and link occupancy state are dense slices indexed by
// (src, dst, vnet) and (from, to) — the node count is small and fixed,
// so this replaces two map lookups per message on the hot path. The
// routing itself is fixed too, so New tabulates every pair's hop count
// (and, under the contention model, its link route) once, and a
// message costs one table load instead of a coordinate computation.
type Mesh struct {
	cfg   Config
	eng   *engine.Engine
	st    *stats.Stats
	last  []engine.Cycle // per (src*nodes+dst)*numVnets+vnet: last delivery cycle
	links []engine.Cycle // per from*nodes+to: busy-until (contention mode)
	hops  []int32        // per src*nodes+dst: routed hop count
	// Contention mode only: the links (from*nodes+to) of pair p's route
	// are routes[routeAt[p]:routeAt[p+1]], in traversal order.
	routes  []int32
	routeAt []int32
	nodes   int
}

// LinkCount reports how many directed links the topology has — the
// denominator for the link-utilization gauge. Mesh links are the
// directed nearest-neighbour edges; ring nodes have two neighbours
// each; the crossbar gives every ordered pair its own link.
func (m *Mesh) LinkCount() int {
	switch m.cfg.Topology {
	case TopoRing:
		return 2 * m.nodes
	case TopoCrossbar:
		return m.nodes * (m.nodes - 1)
	}
	x, y := m.cfg.DimX, m.cfg.DimY
	return 2 * (x*(y-1) + y*(x-1))
}

// New builds a mesh over the given engine, accruing network counters
// into st.
func New(cfg Config, eng *engine.Engine, st *stats.Stats) (*Mesh, error) {
	if cfg.DimX <= 0 || cfg.DimY <= 0 {
		return nil, fmt.Errorf("noc: bad dimensions %dx%d", cfg.DimX, cfg.DimY)
	}
	if cfg.FlitBytes <= 0 {
		return nil, fmt.Errorf("noc: bad flit size %d", cfg.FlitBytes)
	}
	nodes := cfg.DimX * cfg.DimY
	m := &Mesh{
		cfg:   cfg,
		eng:   eng,
		st:    st,
		last:  make([]engine.Cycle, nodes*nodes*numVnets),
		links: make([]engine.Cycle, nodes*nodes),
		hops:  make([]int32, nodes*nodes),
		nodes: nodes,
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			m.hops[src*nodes+dst] = int32(m.distance(src, dst))
		}
	}
	if cfg.ModelContention {
		m.routeAt = make([]int32, nodes*nodes+1)
		for p := 0; p < nodes*nodes; p++ {
			prev := p / nodes
			for _, next := range m.Path(prev, p%nodes) {
				m.routes = append(m.routes, int32(prev*nodes+next))
				prev = next
			}
			m.routeAt[p+1] = int32(len(m.routes))
		}
	}
	return m, nil
}

// Path returns the route from src to dst as node hops (excluding src
// itself): dimension-ordered XY on the mesh (X fully before Y, the
// deadlock-free discipline), shortest direction on the ring, and the
// direct hop on the crossbar.
func (m *Mesh) Path(src, dst int) []int {
	if src == dst {
		return nil
	}
	switch m.cfg.Topology {
	case TopoRing:
		var path []int
		step := 1
		if (dst-src+m.nodes)%m.nodes > m.nodes/2 {
			step = -1
		}
		for n := src; n != dst; {
			n = (n + step + m.nodes) % m.nodes
			path = append(path, n)
		}
		return path
	case TopoCrossbar:
		return []int{dst}
	}
	var path []int
	x, y := src%m.cfg.DimX, src/m.cfg.DimX
	dx, dy := dst%m.cfg.DimX, dst/m.cfg.DimX
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		path = append(path, y*m.cfg.DimX+x)
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		path = append(path, y*m.cfg.DimX+x)
	}
	return path
}

// Nodes reports the node count.
func (m *Mesh) Nodes() int { return m.nodes }

// Hops returns the routed hop count between two nodes: Manhattan
// distance on the mesh, shortest direction on the ring, one on the
// crossbar.
func (m *Mesh) Hops(src, dst int) int { return int(m.hops[src*m.nodes+dst]) }

// distance computes Hops from the node coordinates; New tabulates it.
func (m *Mesh) distance(src, dst int) int {
	if src == dst {
		return 0
	}
	switch m.cfg.Topology {
	case TopoRing:
		d := abs(src - dst)
		if wrap := m.nodes - d; wrap < d {
			return wrap
		}
		return d
	case TopoCrossbar:
		return 1
	}
	sx, sy := src%m.cfg.DimX, src/m.cfg.DimX
	dx, dy := dst%m.cfg.DimX, dst/m.cfg.DimX
	return abs(sx-dx) + abs(sy-dy)
}

// Flits returns how many flits a message of the given size occupies.
func (m *Mesh) Flits(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + m.cfg.FlitBytes - 1) / m.cfg.FlitBytes
}

// Latency computes the delivery latency for a message, excluding FIFO
// back-pressure.
func (m *Mesh) Latency(src, dst, bytes int) engine.Cycle {
	return m.latency(src*m.nodes+dst, m.Flits(bytes))
}

// latency is Latency for a pair index src*nodes+dst and a flit count.
func (m *Mesh) latency(pair, flits int) engine.Cycle {
	hops := m.hops[pair]
	if hops == 0 {
		return m.cfg.LocalLat
	}
	return m.cfg.RouterLat + engine.Cycle(hops)*m.cfg.HopLatency + engine.Cycle(flits-1)*m.cfg.SerialLat
}

// Send delivers a message of the given byte size from src to dst on
// virtual network vnet, invoking deliver when it arrives. Deliveries
// on the same (src, dst, vnet) channel never reorder. Flit-hop and
// message counters accrue immediately.
func (m *Mesh) Send(src, dst, vnet, bytes int, deliver func()) {
	at, _ := m.Arrival(m.eng.Now(), src, dst, vnet, bytes, m.st)
	m.eng.ScheduleAt(at, deliver)
}

// SendRunner is Send for a pre-bound engine.Runner: the allocation-free
// path the coherence layer uses (the message itself is the runner).
func (m *Mesh) SendRunner(src, dst, vnet, bytes int, deliver engine.Runner) {
	at, _ := m.Arrival(m.eng.Now(), src, dst, vnet, bytes, m.st)
	m.eng.ScheduleRunnerAt(at, deliver)
}

// Arrival accounts the message into st and computes its delivery cycle
// for a send at cycle now, including FIFO back-pressure on the (src,
// dst, vnet) channel. stall is how long the message queued behind busy
// links beyond its uncontended latency (always 0 without the contention
// model) — the amount accrued to st.LinkStallCycles.
func (m *Mesh) Arrival(now engine.Cycle, src, dst, vnet, bytes int, st *stats.Stats) (at, stall engine.Cycle) {
	if src < 0 || src >= m.nodes || dst < 0 || dst >= m.nodes {
		panic(fmt.Sprintf("noc: node out of range: src=%d dst=%d nodes=%d", src, dst, m.nodes))
	}
	if vnet < 0 || vnet >= numVnets {
		panic(fmt.Sprintf("noc: vnet out of range: %d", vnet))
	}
	pair := src*m.nodes + dst
	flits := m.Flits(bytes)
	st.Messages++
	st.Flits += uint64(flits)
	st.FlitHops += uint64(flits) * uint64(m.hops[pair])

	if m.cfg.ModelContention && src != dst {
		at, stall = m.reserve(now, pair, flits, st)
	} else {
		at = now + m.latency(pair, flits)
	}
	// last holds (previous delivery cycle + 1), so the zero value means
	// "channel never used" and preserves FIFO order otherwise.
	idx := pair*numVnets + vnet
	if floor := m.last[idx]; at < floor {
		at = floor
	}
	m.last[idx] = at + 1
	return at, stall
}

// reserve walks pair's stored route claiming each link in turn
// (wormhole style): the head flit waits for the link to drain, then the
// message occupies it for one serialization slot per flit. The returned
// cycle is the tail's arrival at the destination; queueing beyond the
// uncontended latency is the returned stall, also accrued to the
// LinkStallCycles counter.
func (m *Mesh) reserve(now engine.Cycle, pair, flits int, st *stats.Stats) (arrival, stall engine.Cycle) {
	occupancy := engine.Cycle(flits) * m.cfg.SerialLat
	if occupancy == 0 {
		occupancy = 1
	}
	head := now + m.cfg.RouterLat
	for _, l := range m.routes[m.routeAt[pair]:m.routeAt[pair+1]] {
		start := head
		if busy := m.links[l]; busy > start {
			start = busy
		}
		m.links[l] = start + occupancy
		head = start + m.cfg.HopLatency
	}
	arrival = head + engine.Cycle(flits-1)*m.cfg.SerialLat
	if base := now + m.latency(pair, flits); arrival > base {
		stall = arrival - base
		st.LinkStallCycles += uint64(stall)
	}
	return arrival, stall
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
