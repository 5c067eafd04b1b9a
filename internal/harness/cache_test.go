package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/resultcache"
)

// TestCacheServesCoveringEntries pins how the result cache treats the
// report's observed matrix and the figures' plain one, whose cells
// share keys: an entry answers every request its payload covers, and a
// request that needs more simulates and rewrites the entry.
func TestCacheServesCoveringEntries(t *testing.T) {
	base := Options{Cores: 4, Scale: 1, Jobs: 2, Workloads: []string{"histogram", "swaptions"}}
	cells := len(base.Workloads) * len(core.AllProtocols)
	// grid runs one matrix over the cache in dir and checks how many of
	// its cells the cache answered.
	grid := func(t *testing.T, dir string, build func(Options) (*Matrix, error), cached int) *Matrix {
		t.Helper()
		c, err := resultcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var progress bytes.Buffer
		o := base
		o.Cache, o.Progress = c, &progress
		m, err := build(o)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d cells (0 failed, %d cached)", cells, cached)
		if !strings.Contains(progress.String(), want) {
			t.Errorf("progress does not report %q:\n%s", want, progress.String())
		}
		return m
	}
	sameViews := func(t *testing.T, got, want *Matrix) {
		t.Helper()
		for _, w := range base.Workloads {
			for _, p := range core.AllProtocols {
				if !reflect.DeepEqual(got.Get(w, p), want.Get(w, p)) {
					t.Errorf("%s/%s: stats differ", w, p)
				}
				if got.Attribs == nil || want.Attribs == nil {
					continue
				}
				// A breakdown's exported totals are what the cache keeps.
				gotLat, _ := json.Marshal(got.Breakdowns[w][p])
				wantLat, _ := json.Marshal(want.Breakdowns[w][p])
				if !reflect.DeepEqual(got.Attribs[w][p].Dump(), want.Attribs[w][p].Dump()) ||
					!bytes.Equal(gotLat, wantLat) {
					t.Errorf("%s/%s: views differ", w, p)
				}
			}
		}
	}

	t.Run("report then figs", func(t *testing.T) {
		dir := t.TempDir()
		observed := grid(t, dir, collectObserved, 0)
		plain := grid(t, dir, Collect, cells)
		if plain.Attribs != nil || plain.Breakdowns != nil {
			t.Error("Collect answered from the cache carries report-only views")
		}
		sameViews(t, plain, observed)
	})

	t.Run("figs then report", func(t *testing.T) {
		dir := t.TempDir()
		plain := grid(t, dir, Collect, 0)
		// The entries lack the views: every cell simulates and rewrites
		// its entry, which a new process (a new Cache over the same
		// directory) then reads for both matrices.
		observed := grid(t, dir, collectObserved, 0)
		sameViews(t, plain, observed)
		sameViews(t, grid(t, dir, collectObserved, cells), observed)
		sameViews(t, grid(t, dir, Collect, cells), plain)
	})
}
