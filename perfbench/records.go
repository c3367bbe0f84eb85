package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/harvester/binrec"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/policy"
	"repro/internal/stats"
)

// genRecords draws n seeded exploration records over k actions, shaped
// like the load balancer's: the context is a per-upstream connection-count
// vector, the logging policy a random distribution with every action at
// least half as likely as uniform, the reward a positive latency-like
// number that grows with the chosen upstream's load. Sequence numbers
// start at seq0.
func genRecords(r *rand.Rand, n, k int, seq0 int64) []core.Datapoint {
	out := make([]core.Datapoint, n)
	dist := make([]float64, k)
	for i := range out {
		conns := make(core.Vector, k)
		for a := range conns {
			conns[a] = float64(r.Intn(8))
		}
		total := 0.0
		for a := range dist {
			dist[a] = 1 + r.Float64()
			total += dist[a]
		}
		for a := range dist {
			dist[a] /= total
		}
		a := stats.Categorical(r, dist)
		out[i] = core.Datapoint{
			Context:    core.Context{Features: conns, NumActions: k},
			Action:     core.Action(a),
			Reward:     0.002*(1+0.5*float64(a%2)) + 0.0005*conns[a] + 0.001*r.Float64(),
			Propensity: dist[a],
			Seq:        seq0 + int64(i),
		}
	}
	return out
}

// encodeRecords renders records as a binrec stream; header selects whether
// the stream header is written first.
func encodeRecords(pts []core.Datapoint, header bool) ([]byte, error) {
	var buf bytes.Buffer
	var enc *binrec.Encoder
	if header {
		var err error
		if enc, err = binrec.NewEncoder(&buf); err != nil {
			return nil, err
		}
	} else {
		enc = binrec.NewAppendEncoder(&buf)
	}
	for i := range pts {
		if err := enc.Write(&pts[i]); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// policySet is a harvestd -policies spec with the names harvestd registers
// them under and the policy values themselves.
type policySet struct {
	spec  string
	names []string
	pols  []core.Policy
}

// newPolicySet mirrors harvestd's -policies parsing for the benchmark's
// specs: uniform, leastloaded and constant:0 .. constant:(constants-1).
func newPolicySet(constants int) policySet {
	ps := policySet{spec: "uniform,leastloaded"}
	ps.names = []string{"uniform", "leastloaded"}
	ps.pols = []core.Policy{policy.UniformRandom{}, lbsim.LeastLoaded{}}
	for k := 0; k < constants; k++ {
		ps.spec += fmt.Sprintf(",constant:%d", k)
		ps.names = append(ps.names, fmt.Sprintf("always-%d", k))
		ps.pols = append(ps.pols, policy.Constant{A: core.Action(k)})
	}
	return ps
}

// register adds the set to a registry under harvestd's names.
func (ps policySet) register(reg *harvestd.Registry) error {
	for i, name := range ps.names {
		if err := reg.Register(name, ps.pols[i]); err != nil {
			return err
		}
	}
	return nil
}

// reference is the batch estimate of one policy that the live estimates
// must reproduce.
type reference struct {
	name       string
	n          int64
	ips, snips float64
}

// references computes ope.IPS and ope.SNIPS over data for every policy.
func (ps policySet) references(data core.Dataset) ([]reference, error) {
	out := make([]reference, len(ps.names))
	for i, pol := range ps.pols {
		ips, err := ope.IPS{}.Estimate(pol, data)
		if err != nil {
			return nil, fmt.Errorf("ope.IPS %s: %w", ps.names[i], err)
		}
		sn, err := ope.SNIPS{}.Estimate(pol, data)
		if err != nil {
			return nil, fmt.Errorf("ope.SNIPS %s: %w", ps.names[i], err)
		}
		out[i] = reference{name: ps.names[i], n: int64(len(data)), ips: ips.Value, snips: sn.Value}
	}
	return out, nil
}

// relClose reports whether a and b agree to tol relative.
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// checkEstimates compares served estimates with the references: each
// policy's n exactly, and its IPS and SNIPS values to 1e-9 relative.
func checkEstimates(got []harvestd.PolicyEstimate, refs []reference, o *outcome) {
	byName := map[string]harvestd.PolicyEstimate{}
	for _, pe := range got {
		byName[pe.Policy] = pe
	}
	for _, ref := range refs {
		pe, ok := byName[ref.name]
		switch {
		case !ok:
			o.fail("policy %s missing from estimates", ref.name)
		case pe.N != ref.n:
			o.fail("policy %s: n = %d, want %d", ref.name, pe.N, ref.n)
		case !relClose(pe.IPS.Value, ref.ips, 1e-9):
			o.fail("policy %s: IPS %v, reference %v", ref.name, pe.IPS.Value, ref.ips)
		case !relClose(pe.SNIPS.Value, ref.snips, 1e-9):
			o.fail("policy %s: SNIPS %v, reference %v", ref.name, pe.SNIPS.Value, ref.snips)
		}
	}
}
