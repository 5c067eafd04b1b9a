package runner

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"protozoa/internal/mem"
)

// listParsers are the grid list parsers, each returning its elements'
// names: ParseProtocols, ParseRegions, ParseKnobs and ResolveWorkloads
// on the comma-split string, as the -workloads flag hands it over.
var listParsers = map[string]func(string) ([]string, error){
	"protocols": func(s string) ([]string, error) {
		ps, err := ParseProtocols(s)
		var names []string
		for _, p := range ps {
			names = append(names, p.String())
		}
		return names, err
	},
	"regions": func(s string) ([]string, error) {
		rs, err := ParseRegions(s)
		var names []string
		for _, v := range rs {
			names = append(names, strconv.Itoa(v))
		}
		return names, err
	},
	"knobs": ParseKnobs,
	"workloads": func(s string) ([]string, error) {
		specs, err := ResolveWorkloads(strings.Split(s, ","))
		var names []string
		for _, spec := range specs {
			names = append(names, spec.Name)
		}
		return names, err
	},
}

// FuzzParseLists feeds one arbitrary string to every grid list parser.
// No input may panic. An accepted list holds no element twice, every
// element re-parses to itself alone, and every accepted region size
// builds a geometry. The corpus starts from the CLI defaults and the
// inputs earlier list-parsing bugs were found with.
func FuzzParseLists(f *testing.F) {
	for _, s := range []string{
		"all", "baseline", "64", "linear-regression,histogram",
		"barnes,,fft", " fft", "all,mesi", "64,24", "24", "32,64 ,128,64",
		"threehop, bloom,threehop", "mesi,sw+mr,Protozoa-MW", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for what, parse := range listParsers {
			names, err := parse(s)
			if err != nil {
				continue
			}
			for i, n := range names {
				if slices.Contains(names[:i], n) {
					t.Errorf("%s %q: %s listed twice in %v", what, s, n, names)
				}
				if again, err := parse(n); err != nil || len(again) != 1 || again[0] != n {
					t.Errorf("%s %q: element %s re-parses to %v, %v", what, s, n, again, err)
				}
				if what == "regions" {
					v, _ := strconv.Atoi(n)
					if _, err := mem.NewGeometry(v); err != nil {
						t.Errorf("regions %q: accepted %d: %v", s, v, err)
					}
				}
			}
		}
	})
}
