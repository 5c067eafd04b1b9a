package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"protozoa"
)

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"protozoa/internal/core.(*System).Run":                                "protozoa/internal/core",
		"protozoa/internal/core.(*l1).handle.func1":                           "protozoa/internal/core",
		"protozoa/internal/obs/attrib.(*Tracker).OnFill":                      "protozoa/internal/obs/attrib",
		"runtime.mallocgc":                                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                        "internal/runtime/maps",
		"main.attribute":                                                      "main",
		"protozoa.Run":                                                        "protozoa",
		"sort.Strings":                                                        "sort",
		"protozoa/internal/engine.(*heap[...]).push":                          "protozoa/internal/engine",
		"protozoa/internal/runner.Pool.Run.func1":                             "protozoa/internal/runner",
		"protozoa/internal/engine.push[go.shape.*protozoa/internal/core.Msg]": "protozoa/internal/engine",
		"protozoa/internal/harness.Collect.func1":                             "protozoa/internal/harness",
		"protozoa/internal/workloads.(*builder).load":                         "protozoa/internal/workloads",
		"protozoa/internal/obs.(*LatencyBreakdown).Stamp":                     "protozoa/internal/obs",
	}
	for in, want := range cases {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	f := func(name, file string) pprofFunc { return pprofFunc{name, file} }
	cases := []struct {
		stack []pprofFunc
		want  string
	}{
		{[]pprofFunc{f("protozoa/internal/core.(*l1).fill", "/src/internal/core/l1.go")}, "core.l1"},
		{[]pprofFunc{f("protozoa/internal/core.(*dirCtl).handle", "/src/internal/core/dir.go")}, "core.dir"},
		{[]pprofFunc{f("protozoa/internal/core.(*bloom).probe", "/src/internal/core/bloomdir.go")}, "core.dir"},
		{[]pprofFunc{f("protozoa/internal/core.(*pool).get", "/src/internal/core/msg.go")}, "core.msg"},
		{[]pprofFunc{f("protozoa/internal/core.(*System).windowLoop", "/src/internal/core/pdes.go")}, "core.pdes"},
		{[]pprofFunc{f("protozoa/internal/core.(*System).EnableSelfProf", "/src/internal/core/obs.go")}, "core.other"},
		{[]pprofFunc{f("protozoa/internal/obs.(*LatencyBreakdown).Record", "/src/internal/obs/latency.go")}, "obs.latency"},
		{[]pprofFunc{f("protozoa/internal/obs.(*Registry).Set", "/src/internal/obs/registry.go")}, "obs.other"},
		{[]pprofFunc{f("protozoa/internal/obs/attrib.(*Tracker).OnFill", "")}, "obs.attrib"},
		{[]pprofFunc{f("protozoa/internal/obs/selfprof.(*Profile).Report", "")}, "repo.other"},
		{[]pprofFunc{f("protozoa.Run", "")}, "repo.other"},
		{[]pprofFunc{f("protozoa/internal/engine.(*Engine).Run", "")}, "engine"},
		{[]pprofFunc{f("runtime.mallocgc", ""), f("protozoa/internal/core.newMsg", "")}, "runtime.other"},
		{[]pprofFunc{f("internal/runtime/maps.(*Map).get", "")}, "runtime.other"},
		{[]pprofFunc{f("runtime.scanobject", ""), f("runtime.gcDrain", ""), f("runtime.gcBgMarkWorker", "")}, "runtime.gc"},
		{[]pprofFunc{f("runtime.memclrNoHeapPointers", ""), f("runtime.gcAssistAlloc1", ""), f("runtime.mallocgc", "")}, "runtime.gc"},
		{[]pprofFunc{f("sort.insertionSort", "")}, "other"},
		{nil, "other"},
		{[]pprofFunc{f("main.quantile", "")}, "bench"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestProfileAttributionReconciles profiles a real simulation in this
// process, decodes the profile, and checks that every sample lands in
// exactly one reported layer.
func TestProfileAttributionReconciles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(700 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := protozoa.Run("canneal", protozoa.MESI, protozoa.Options{Cores: 16, Scale: 1}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := decodeCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a attribution
	a.add(p)
	if a.samples == 0 || a.total <= 0 {
		t.Fatalf("no samples decoded (%d samples, %d ns)", a.samples, a.total)
	}
	if err := a.reconcile(); err != nil {
		t.Fatal(err)
	}
	var core int64
	for _, l := range []string{"core.l1", "core.dir", "core.msg", "core.cpu", "core.system", "core.pdes", "core.other"} {
		core += a.nanos[l]
	}
	if core == 0 {
		t.Errorf("a 0.7 s simulation attributed no time to internal/core: %v", a.nanos)
	}
}

func TestReconcileRejectsUnknownBucket(t *testing.T) {
	a := attribution{nanos: map[string]int64{"core.l1": 5, "mystery": 5}, total: 10}
	if err := a.reconcile(); err == nil {
		t.Error("unknown bucket accepted")
	}
	a = attribution{nanos: map[string]int64{"core.l1": 5}, total: 10}
	if err := a.reconcile(); err == nil {
		t.Error("self times short of the total accepted")
	}
}

func TestDecodeRejectsNonProfiles(t *testing.T) {
	if _, err := decodeCPUProfile(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("garbage decoded")
	}
}
