package harness

import (
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/profile"
	"protozoa/internal/workloads"
)

// TestProfileReconcilesWithAttribution pins the Section 2 profile to the
// simulation's attribution. The L1s see exactly the trace's accesses
// and both views classify with attrib's one classifier, so for every
// suite workload and micro under every protocol, each profiled region's
// class equals its simulated pattern coarsened (profile.Class), the
// region counts agree, and the access, load and store counts equal the
// run's stats.
func TestProfileReconcilesWithAttribution(t *testing.T) {
	const cores, scale = 16, 1
	names := append(workloads.Names(), workloads.MicroNames()...)
	m, err := Collect(Options{Cores: cores, Scale: scale, Workloads: names})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range names {
		prof := profile.Analyze(workloads.MustGet(w).Records(cores, scale, 0), mem.DefaultGeometry)
		for _, p := range m.Protocols {
			tr, st := m.Attribs[w][p], m.Get(w, p)
			if n := prof.Mismatches(tr); n != 0 {
				t.Errorf("%s/%s: %d of %d regions classify differently", w, p, n, prof.Regions)
			}
			if tr.RegionCount() != prof.Regions {
				t.Errorf("%s/%s: tracker holds %d regions, profile %d", w, p, tr.RegionCount(), prof.Regions)
			}
			if st.Accesses != prof.Accesses || st.Loads != prof.Loads || st.Stores != prof.Stores {
				t.Errorf("%s/%s: run counts %d/%d/%d accesses/loads/stores, profile %d/%d/%d",
					w, p, st.Accesses, st.Loads, st.Stores, prof.Accesses, prof.Loads, prof.Stores)
			}
		}
	}
}
