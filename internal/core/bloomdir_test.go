package core

import (
	"testing"
	"testing/quick"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

func TestBloomDirAddLookupRemove(t *testing.T) {
	b := newBloomDir(4, 64, 16)
	b.add(42, 3)
	if !b.sharers(42).Has(3) {
		t.Fatal("added sharer not found")
	}
	b.remove(42, 3)
	if b.sharers(42).Has(3) {
		t.Fatal("removed sharer still present")
	}
}

func TestBloomDirSupersetProperty(t *testing.T) {
	// Whatever was added and not removed must always be reported:
	// false positives are allowed, false negatives never.
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		b := newBloomDir(4, 64, 16)
		exact := make(map[[2]uint64]int) // (region, node) -> count
		for i := 0; i < 300; i++ {
			r := mem.RegionID(rng.Intn(500))
			n := rng.Intn(16)
			k := [2]uint64{uint64(r), uint64(n)}
			if rng.Intn(2) == 0 {
				b.add(r, n)
				exact[k]++
			} else if exact[k] > 0 {
				b.remove(r, n)
				exact[k]--
			}
		}
		for k, cnt := range exact {
			if cnt > 0 && !b.sharers(mem.RegionID(k[0])).Has(int(k[1])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBloomDirAliasingProducesFalsePositivesOnly(t *testing.T) {
	// With a tiny filter, unrelated regions alias: the lookup may
	// report node 5 for region B after only adding it for region A —
	// but removing A's membership must never hide a real member.
	b := newBloomDir(2, 2, 16)
	b.add(1, 5)
	b.add(2, 5)
	b.remove(1, 5)
	if !b.sharers(2).Has(5) {
		t.Fatal("real member hidden after an unrelated removal")
	}
}

func bloomCfg(p Protocol, n int) Config {
	cfg := testConfig(p, n)
	cfg.Directory = DirBloom
	return cfg
}

func TestBloomDirectoryStress(t *testing.T) {
	// Full random stress with golden-value + SWMR checking under the
	// bloom directory, including tiny caches (eviction notifications).
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := bloomCfg(p, 4)
			cfg.L1Sets = 2
			cfg.L1SetBudget = 144
			cfg.MaxEvents = 5_000_000
			perCore := workloads.RandomRecords(4, 1500, 12, 40, 31)
			sys, err := NewSystem(cfg, perCore)
			if err != nil {
				t.Fatal(err)
			}
			chk := newChecker(t, sys)
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if chk.Checks == 0 {
				t.Error("checker never ran")
			}
		})
	}
}

func TestBloomFalsePositiveProbesNack(t *testing.T) {
	// A deliberately tiny filter aliases heavily: writes to unrelated
	// regions probe non-sharers, which answer NACK. The run must stay
	// correct — the NACKs are pure overhead.
	cfg := bloomCfg(MESI, 2)
	cfg.BloomHashes = 1
	cfg.BloomBuckets = 2
	// All regions even, so they home on tile 0 and alias in the same
	// per-tile filter; the cores' region sets stay disjoint.
	var c0, c1 []trace.Access
	for i := 0; i < 40; i++ {
		c0 = append(c0, ld(regAddr(4*i)))
		c1 = append(c1, st(regAddr(4*i+2)))
	}
	sys := runSys(t, cfg, [][]trace.Access{c0, c1})
	if sys.Stats().ControlBytes[4] == 0 { // ClassNACK
		t.Error("tiny bloom filter produced no false-positive NACK probes")
	}
}

func TestBloomMatchesPreciseResultsOnPrivateWorkload(t *testing.T) {
	// With no sharing there are no probes, so bloom and precise must
	// agree on misses (traffic differs only by eviction notifications).
	mk := func() [][]trace.Access {
		var a, b []trace.Access
		for i := 0; i < 150; i++ {
			a = append(a, st(regAddr(i%24)))
			b = append(b, st(regAddr(100+i%24)))
		}
		return [][]trace.Access{a, b}
	}
	precise := runSys(t, testConfig(ProtozoaMW, 2), mk())
	bloom := runSys(t, bloomCfg(ProtozoaMW, 2), mk())
	if precise.Stats().L1Misses != bloom.Stats().L1Misses {
		t.Errorf("misses: precise %d != bloom %d", precise.Stats().L1Misses, bloom.Stats().L1Misses)
	}
}
