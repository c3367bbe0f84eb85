package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lbsim"
	"repro/internal/obs"
	"repro/internal/ope"
	"repro/internal/stats"
)

// writerTo is what every experiment result implements.
type writerTo interface {
	WriteTo(io.Writer) (int64, error)
}

// experimentRuns calls the experiments functions the way `harvest -seed 1
// <name>` does at full size with the default worker count, writing each
// result to w.
func experimentRuns(w io.Writer) map[string]func() error {
	const seed, workers = 1, 0
	emit := func(res writerTo, err error) error {
		if err != nil {
			return err
		}
		if _, err := res.WriteTo(w); err != nil {
			return err
		}
		_, err = fmt.Fprintln(w)
		return err
	}
	return map[string]func() error{
		"fig1": func() error {
			p := experiments.DefaultFig1Params()
			p.Workers = workers
			return emit(experiments.Fig1(p))
		},
		"fig2": func() error {
			p := experiments.DefaultFig2Params()
			p.Workers = workers
			return emit(experiments.Fig2(p))
		},
		"fig3": func() error {
			p := experiments.DefaultFig3Params()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.Fig3(p))
		},
		"fig4": func() error {
			p := experiments.DefaultFig4Params()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.Fig4(p))
		},
		"table2": func() error {
			p := experiments.DefaultTable2Params()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.Table2(p))
		},
		"table3": func() error {
			p := experiments.DefaultTable3Params()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.Table3(p))
		},
		"fig6": func() error {
			p := experiments.DefaultFig6Params()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.Fig6(p))
		},
		"eq1": func() error {
			p := experiments.DefaultEq1Params()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.Eq1(p))
		},
		"loop": func() error {
			p := experiments.DefaultContinuousParams()
			p.Seed = seed
			return emit(experiments.Continuous(p))
		},
		"drift": func() error {
			p := experiments.DefaultDriftParams()
			p.Seed = seed
			return emit(experiments.Drift(p))
		},
		"rollout": func() error {
			p := experiments.DefaultRolloutParams()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.Rollout(p))
		},
		"zipf": func() error {
			p := experiments.DefaultZipfContrastParams()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.ZipfContrast(p))
		},
		"p99": func() error {
			p := experiments.DefaultP99Params()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.P99(p))
		},
		"longterm": func() error {
			p := experiments.DefaultLongTermParams()
			p.Seed, p.Workers = seed, workers
			return emit(experiments.LongTerm(p))
		},
		"ablate": func() error {
			if err := emit(experiments.AblationEstimators(seed, 20000, workers)); err != nil {
				return err
			}
			if err := emit(experiments.AblationPropensity(seed, 20000, workers)); err != nil {
				return err
			}
			if err := emit(experiments.AblationExploration(seed, 20000, workers)); err != nil {
				return err
			}
			return emit(experiments.AblationSampleWidth(seed, 60000, []int{2, 3, 5, 10, 20}, workers))
		},
	}
}

// reproLayers times each experiment in process, checks their joint output
// against the reference, and times the batch IPS and SNIPS estimators on a
// seeded dataset.
func reproLayers(tr *obs.Tracer, root *obs.Span, o *outcome, want []byte) error {
	var out bytes.Buffer
	runs := experimentRuns(&out)
	for _, name := range experimentNames {
		sp := tr.Start("experiments/"+name, root, nil)
		t0 := time.Now()
		err := runs[name]()
		o.layers["experiments."+name+"_s"] = metric{time.Since(t0).Seconds(), "s"}
		sp.End()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
	}
	if !bytes.Equal(out.Bytes(), want) {
		o.fail("in-process experiments differ from RESULTS-seed1.txt")
	}

	data := core.Dataset(genRecords(stats.NewRand(1), 1<<16, 2, 1))
	const passes = 10
	for _, est := range []struct {
		key string
		e   ope.Estimator
	}{{"ope.ips_ns_per_record", ope.IPS{}}, {"ope.snips_ns_per_record", ope.SNIPS{}}} {
		d, err := perItem(tr, root, "ope/"+est.e.Name(), len(data)*passes, func() error {
			for p := 0; p < passes; p++ {
				if _, err := est.e.Estimate(lbsim.LeastLoaded{}, data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		o.layers[est.key] = metric{ns(d), "ns"}
	}
	return nil
}
