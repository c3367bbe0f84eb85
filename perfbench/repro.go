package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
)

// experimentNames is `harvest all` in its order; the concatenated output
// of the experiments run one by one is byte-identical to `harvest all`.
var experimentNames = []string{"fig1", "fig2", "fig3", "fig4", "table2", "table3", "fig6",
	"eq1", "loop", "drift", "rollout", "zipf", "p99", "longterm", "ablate"}

const (
	// startupsPerExperiment is how many start-ups are timed for set-up
	// before each experiment: a start-up costs milliseconds, so many are
	// cheap, and spread over the run their median is steady.
	startupsPerExperiment = 2
	// secondsPerPass is the requested time per pass over the
	// experiments; a pass takes about 12 s on 2 vCPUs, and a run makes as
	// many passes as fit, at least one.
	secondsPerPass = 10
)

// runRepro runs the seed-1 paper reproduction at full size, one `harvest`
// process per experiment so each experiment is timed from outside, and
// checks every pass's output against RESULTS-seed1.txt. The workload seed
// does not change its input: the reference output is for seed 1.
func runRepro(e *env) (*outcome, error) {
	o := newOutcome()
	want, err := os.ReadFile(filepath.Join(e.root, "RESULTS-seed1.txt"))
	if err != nil {
		return nil, err
	}
	harvest := binPath(e, "harvest")

	// Set-up: start the binary until it has parsed its flags and refused
	// an unknown experiment, the start-up every experiment pays. The
	// start-ups' time is left out of the passes' total.
	var setups []float64
	var startups time.Duration
	startup := func() error {
		defer func(t time.Time) { startups += time.Since(t) }(time.Now())
		for i := 0; i < startupsPerExperiment; i++ {
			t0 := time.Now()
			cmd := exec.Command(harvest, "-seed", "1", "no-such-experiment")
			if err := cmd.Run(); err == nil {
				return fmt.Errorf("harvest accepted an unknown experiment")
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}

	var tr *obs.Tracer
	var traceBuf bytes.Buffer
	if e.trace {
		tr = obs.NewTracer(&traceBuf, nil)
	}
	root := tr.Start("workload/paper-repro", nil, map[string]any{"seed": e.seed})

	passes := max(1, int(e.seconds/secondsPerPass))
	var walls []float64
	perExp := make([]float64, len(experimentNames))
	var cpu, rss float64
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		var out bytes.Buffer
		for i, name := range experimentNames {
			if err := startup(); err != nil {
				return nil, err
			}
			sp := tr.Start("system/experiment", root, map[string]any{"experiment": name, "pass": pass})
			start := time.Now()
			cmd := exec.Command(harvest, "-seed", "1", name)
			cmd.Stdout = &out
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("harvest %s: %v\n%s", name, err, stderr.String())
			}
			ms := time.Since(start).Seconds() * 1000
			sp.End()
			walls = append(walls, ms)
			perExp[i] += ms / float64(passes)
			st := cmd.ProcessState
			cpu += (st.UserTime() + st.SystemTime()).Seconds()
			if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
				// The experiments run one after another, so the system's
				// peak is the largest single peak (Maxrss is in KiB on
				// Linux).
				if mb := float64(ru.Maxrss) / 1024; mb > rss {
					rss = mb
				}
			}
		}
		if !bytes.Equal(out.Bytes(), want) {
			o.fail("pass %d output differs from RESULTS-seed1.txt (%d vs %d bytes)", pass, out.Len(), len(want))
		}
	}
	total := (time.Since(t0) - startups).Seconds()
	o.attempted = int64(passes * len(experimentNames))
	o.setups, o.op = setups, "experiment"
	o.samples["experiment"] = walls
	o.cpu, o.work, o.secs = cpu, float64(passes*len(experimentNames)), total
	o.rss = []float64{rss}
	o.finish()
	o.detail["repro_s"] = metric{total / float64(passes), "s"}
	for i, name := range experimentNames {
		o.detail["experiment."+name+"_ms"] = metric{perExp[i], "ms"}
	}

	if e.trace {
		if err := reproLayers(tr, root, o, want); err != nil {
			return nil, err
		}
		root.End()
		if err := finishTrace(e, "paper-repro", tr, &traceBuf, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}
