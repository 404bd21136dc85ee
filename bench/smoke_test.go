package main

import (
	"testing"
	"time"
)

// A short-sized run of every workload (scale 2, one second measured,
// traced run on) must produce every metric BENCHMARK.json lists, with
// no failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			r, err := runOne(w, options{seed: 42, duration: time.Second, trace: true, scale: 2, out: out})
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
			}
			if rate := r.Metrics["error_rate"].Value; rate != 0 {
				t.Errorf("error_rate = %v", rate)
			}
			for _, decls := range [][]decl{endToEnd, perLayer} {
				res, err := pick(r, decls)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range decls {
					if m := res.Metrics[d.name]; m.Unit != d.unit {
						t.Errorf("%s reported in %q, declared %q", d.name, m.Unit, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if v := r.Metrics[d.name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v; must be positive", d.name, v)
				}
			}
		})
	}
}
