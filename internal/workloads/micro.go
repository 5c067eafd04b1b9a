package workloads

// Micro-benchmarks: synchronization-heavy kernels that exercise the
// coherence primitives directly (hot lock words, true-shared atomics,
// flag handoffs). They are deliberately kept out of the figure suite —
// Names()/All() return only the paper's 28 applications — but are
// available through Get for protozoa sim and directed studies.

import (
	"sort"

	"protozoa/internal/mem"
)

var microRegistry = map[string]Spec{}

func registerMicro(s Spec) {
	if _, dup := microRegistry[s.Name]; dup {
		panic("workloads: duplicate micro " + s.Name)
	}
	microRegistry[s.Name] = s
}

// MicroNames lists the micro-benchmarks.
func MicroNames() []string {
	names := make([]string, 0, len(microRegistry))
	for n := range microRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Micros returns every micro-benchmark spec, alphabetically.
func Micros() []Spec {
	var out []Spec
	for _, n := range MicroNames() {
		out = append(out, microRegistry[n])
	}
	return out
}

func init() {
	registerMicro(Spec{
		Name: "micro-atomic-counter", Models: "fetch-and-add loop", Suite: "micro",
		About: "all cores increment one shared counter: pure true sharing, no protocol helps",
		gen:   genAtomicCounter,
	})
	registerMicro(Spec{
		Name: "micro-ticket-lock", Models: "ticket spinlock", Suite: "micro",
		About: "RMW ticket grab, spin on now-serving, short critical section",
		gen:   genTicketLock,
	})
	registerMicro(Spec{
		Name: "micro-barrier-skew", Models: "fork-join straggler phases", Suite: "micro",
		About: "frequent barriers with one rotating straggler per phase: most cores idle at the barrier while one runs far ahead",
		gen:   genBarrierSkew,
	})
	registerMicro(Spec{
		Name: "micro-producer-consumer", Models: "flag handoff", Suite: "micro",
		About: "core pairs hand a 4-word payload through a flag word",
		gen:   genProducerConsumer,
	})
}

// genAtomicCounter: the counterpoint to linear-regression — the same
// loop shape but with one TRUE-shared counter. Every protocol
// ping-pongs it; Protozoa merely moves one word instead of a block.
func genAtomicCounter(b *builder) {
	iters := 300 * b.scale
	for c := 0; c < b.cores; c++ {
		for i := 0; i < iters; i++ {
			b.rmw(c, word(arena0, 0), 0x30000, 2)
		}
	}
}

// genTicketLock: each acquisition grabs a ticket with an RMW, spins on
// the now-serving word, touches a 4-word protected structure, and
// bumps now-serving. The lock words sit in one region (a realistic,
// unpadded lock struct), so lock traffic is also false-shared against
// the protected data in the next region.
func genTicketLock(b *builder) {
	iters := 60 * b.scale
	ticket := word(arena0, 0)
	serving := word(arena0, 1)
	for c := 0; c < b.cores; c++ {
		for i := 0; i < iters; i++ {
			b.rmw(c, ticket, 0x31000, 1)
			// Bounded spin on now-serving (static traces cannot spin
			// conditionally; a handful of polls models the contention).
			for p := 0; p < 3; p++ {
				b.load(c, serving, 0x31010, 1)
			}
			// Critical section: 4 protected words.
			for wdx := 0; wdx < 4; wdx++ {
				a := word(arena0, 8+wdx)
				b.load(c, a, 0x31020, 1)
				b.store(c, a, 0x31030, 1)
			}
			// Release: bump now-serving.
			b.rmw(c, serving, 0x31040, 1)
		}
	}
}

// genBarrierSkew: a fork-join loop whose phases are deliberately
// lopsided — every phase, one rotating straggler core does ~30x the
// work of its siblings, and a shared phase counter forces real
// coherence traffic across the join. The interesting consumer is the
// PDES window loop: fifteen tiles hit the barrier almost immediately
// and drain their queues, so the straggler must be driven through
// extended (window-skipping) solo rounds, the idle tiles must stay
// off the worker crew, and the barrier release must pick the same
// deterministic resume cycle whatever the worker count.
func genBarrierSkew(b *builder) {
	phases := 40 * b.scale
	for ph := 0; ph < phases; ph++ {
		straggler := ph % b.cores
		counter := word(arena0, ph%8)
		for c := 0; c < b.cores; c++ {
			n := 2
			if c == straggler {
				n = 64
			}
			base := arena1 + mem.Addr(c)<<12
			for i := 0; i < n; i++ {
				b.load(c, word(base, (ph*n+i)%64), 0x33000, uint16(1+(c+i)%4))
			}
			// Everyone bumps the shared phase counter before the join,
			// so the straggler's long tail overlaps its siblings'
			// coherence traffic on the way in.
			b.rmw(c, counter, 0x33010, 1)
		}
		b.barrier()
	}
}

// genProducerConsumer: odd cores produce 4-word payloads and set a
// flag; the preceding even core polls the flag and reads the payload.
// Payload and flag share a region: the handoff moves exactly one
// region's worth of useful words per iteration.
func genProducerConsumer(b *builder) {
	iters := 100 * b.scale
	for c := 0; c < b.cores; c++ {
		pair := c / 2
		base := word(arena0, pair*8)
		flag := word(arena0, pair*8+5)
		for i := 0; i < iters; i++ {
			if c%2 == 1 { // producer
				for wdx := 0; wdx < 4; wdx++ {
					b.store(c, base+mem.Addr(wdx*8), 0x32000, 1)
				}
				b.store(c, flag, 0x32010, 1)
			} else { // consumer
				for p := 0; p < 2; p++ {
					b.load(c, flag, 0x32020, 1)
				}
				for wdx := 0; wdx < 4; wdx++ {
					b.load(c, base+mem.Addr(wdx*8), 0x32030, 1)
				}
			}
		}
	}
}
