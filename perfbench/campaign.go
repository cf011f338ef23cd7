package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/eval"
	"fnpr/internal/exact"
	"fnpr/internal/guard"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/sched"
	"fnpr/internal/synth"
	"fnpr/internal/textplot"
)

// campaignConfig fixes a campaign workload (config.json). Acceptance jobs
// use SetsPerPoint and Tasks, atlas jobs C and FuncsPerCell; everything
// else keeps the service defaults.
type campaignConfig struct {
	SetsPerPoint int     `json:"sets_per_point"`
	Tasks        int     `json:"tasks"`
	C            float64 `json:"c"`
	FuncsPerCell int     `json:"funcs_per_cell"`
	// PollMs is the job-status polling interval.
	PollMs float64 `json:"poll_ms"`
	// LatencyLimitMs is the submit-to-done limit behind goodput_frac.
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	// DataDir runs the timed phase against serve -data-dir. Without it, a
	// traced run times one job against a durable server separately.
	DataDir bool `json:"data_dir"`
}

// jobRun is one submitted campaign job as the client saw it.
type jobRun struct {
	seed      int64
	status    int // of the submit
	reqBytes  int
	submitMs  float64
	latencyMs float64 // submit to the poll that saw it finish
	// end is when the client saw the job finish, from the phase start.
	end    time.Duration
	state  string
	result json.RawMessage
}

// campaign is the campaign-acceptance or campaign-atlas workload: one
// client submits jobs one after another and polls each until it is done.
type campaign struct {
	kind    string // "acceptance" or "atlas"
	cfg     campaignConfig
	workers int

	seeds []int64
	jobs  []jobRun
	polls []float64 // job-status request latencies, ms
	dials int64
	refs  [][]byte // reference table JSON per job, filled by measure
}

func (w *campaign) generate(seed int64, seconds float64) error {
	r := rand.New(rand.NewSource(seed))
	// Far more seeds than jobs can finish in the phase.
	for i := 0; i < 100+int(100*seconds); i++ {
		w.seeds = append(w.seeds, r.Int63n(1<<40))
	}
	return nil
}

func (w *campaign) acceptanceParams(seed int64) eval.AcceptanceParams {
	p := eval.DefaultAcceptanceParams()
	p.Seed, p.SetsPerPoint, p.Tasks, p.Workers = seed, w.cfg.SetsPerPoint, w.cfg.Tasks, w.workers
	return p
}

func (w *campaign) atlasParams(seed int64) eval.AtlasParams {
	p := eval.DefaultAtlasParams()
	p.Seed, p.C, p.FuncsPerCell, p.Workers = seed, w.cfg.C, w.cfg.FuncsPerCell, w.workers
	return p
}

// body is the submission for the job with the given seed.
func (w *campaign) body(seed int64) []byte {
	if w.kind == "acceptance" {
		return []byte(fmt.Sprintf(`{"seed":%d,"sets_per_point":%d,"tasks":%d,"workers":%d}`,
			seed, w.cfg.SetsPerPoint, w.cfg.Tasks, w.workers))
	}
	return []byte(fmt.Sprintf(`{"seed":%d,"c":%g,"funcs_per_cell":%d,"workers":%d}`,
		seed, w.cfg.C, w.cfg.FuncsPerCell, w.workers))
}

// opsPerJob is the job's unit count: trials for acceptance, delay
// functions for the atlas.
func (w *campaign) opsPerJob() int {
	if w.kind == "acceptance" {
		return len(acceptancePoints(w.acceptanceParams(0))) * w.cfg.SetsPerPoint
	}
	p := w.atlasParams(0)
	return len(atlasFamilies) * len(p.Qs) * p.FuncsPerCell
}

type jobView struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func (w *campaign) drive(srv *server, seconds float64) error {
	p := newPool(1)
	defer p.close()
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for _, seed := range w.seeds {
		if time.Since(start) >= dur {
			break
		}
		jr := w.runJob(p.clients[0], srv.base, seed)
		jr.end = time.Since(start)
		w.jobs = append(w.jobs, jr)
	}
	w.dials = p.dials.Load()
	return nil
}

// runJob submits the job with the given seed and polls it until it
// finishes, recording every poll's latency in w.polls.
func (w *campaign) runJob(c *http.Client, base string, seed int64) jobRun {
	poll := time.Duration(w.cfg.PollMs * float64(time.Millisecond))
	jr := jobRun{seed: seed}
	body := w.body(seed)
	jr.reqBytes = len(body)
	t0 := time.Now()
	status, resp := do(c, "POST", base+"/v1/campaign/"+w.kind, body)
	jr.status = status
	jr.submitMs = ms(time.Since(t0))
	var v jobView
	if status != 202 || json.Unmarshal(resp, &v) != nil || v.ID == "" {
		time.Sleep(poll)
		return jr
	}
	for {
		time.Sleep(poll)
		t := time.Now()
		st, data := do(c, "GET", base+"/v1/jobs/"+v.ID)
		w.polls = append(w.polls, ms(time.Since(t)))
		var jv jobView
		if st != 200 || json.Unmarshal(data, &jv) != nil {
			jr.state = "lost"
			break
		}
		if jv.State == "done" || jv.State == "failed" {
			jr.state, jr.result = jv.State, jv.Result
			if jv.Error != "" {
				fmt.Fprintf(os.Stderr, "perfbench: job %s failed: %s\n", v.ID, jv.Error)
			}
			break
		}
	}
	jr.latencyMs = ms(time.Since(t0))
	return jr
}

func (w *campaign) durable() bool { return w.cfg.DataDir }

// probeDurable runs the first job again against serve -data-dir, where
// acceptance jobs get a checkpoint journal, and reports the journal
// layer's work and the job's latency there.
func (w *campaign) probeDurable(serveBin, dir string) (map[string]float64, error) {
	if w.cfg.DataDir || len(w.jobs) == 0 {
		return nil, nil
	}
	srv, _, err := startServer(serveBin, dir, true)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	before, err := srv.sample()
	if err != nil {
		return nil, err
	}
	p := newPool(1)
	defer p.close()
	polls := w.polls
	jr := w.runJob(p.clients[0], srv.base, w.jobs[0].seed)
	w.polls = polls
	after, err := srv.sample()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	var served bytes.Buffer
	if jr.state != "done" || json.Compact(&served, jr.result) != nil || !bytes.Equal(served.Bytes(), w.refs[0]) {
		return nil, fmt.Errorf("durable %s job does not match the reference", w.kind)
	}
	c := func(name string) float64 { return float64(after.vars.Counters[name] - before.vars.Counters[name]) }
	var lat []float64
	for _, j := range w.jobs {
		lat = append(lat, j.latencyMs)
	}
	return map[string]float64{
		"journal.appends_per_job":  c("journal.appends"),
		"journal.syncs_per_job":    c("journal.syncs"),
		"journal.durable_job_ms":   jr.latencyMs,
		"journal.durable_slowdown": jr.latencyMs / median(lat),
	}, nil
}

// reference computes the job's table in-process with the same parameters
// the service decoded, and checks its structural invariants.
func (w *campaign) reference(seed int64) ([]byte, error) {
	g := guard.New(context.Background())
	var tbl *textplot.Table
	var err error
	if w.kind == "acceptance" {
		tbl, err = eval.Acceptance(g, w.acceptanceParams(seed))
	} else {
		tbl, err = eval.Atlas(g, w.atlasParams(seed))
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(tbl)
}

// checks runs eval.AcceptanceChecks / eval.AtlasChecks on a served table.
func (w *campaign) checks(raw []byte) error {
	var tbl textplot.Table
	if err := json.Unmarshal(raw, &tbl); err != nil {
		return err
	}
	if w.kind == "acceptance" {
		return eval.AcceptanceChecks(&tbl)
	}
	return eval.AtlasChecks(&tbl)
}

func (w *campaign) measure() (*measurement, error) {
	m := &measurement{limitMs: w.cfg.LatencyLimitMs, tail: w.polls, layer: map[string]float64{}}
	w.refs = make([][]byte, len(w.jobs))
	var submitMs, reqBytes, respBytes float64
	var buf bytes.Buffer
	for i, jr := range w.jobs {
		m.attempted++
		submitMs += jr.submitMs
		reqBytes += float64(jr.reqBytes)
		respBytes += float64(len(jr.result))
		if jr.status != 202 || jr.state != "done" {
			m.fail(fmt.Sprintf("submit status %d, job %q", jr.status, jr.state), jr.result)
			m.latency = append(m.latency, math.Inf(1))
			continue
		}
		ref, err := w.reference(jr.seed)
		if err != nil {
			return nil, fmt.Errorf("reference %s seed %d: %w", w.kind, jr.seed, err)
		}
		w.refs[i] = ref
		buf.Reset()
		if json.Compact(&buf, jr.result) != nil || !bytes.Equal(buf.Bytes(), ref) || w.checks(jr.result) != nil {
			m.fail("mismatch", jr.result)
			m.mismatches++
			m.latency = append(m.latency, math.Inf(1))
			continue
		}
		m.latency = append(m.latency, jr.latencyMs)
	}
	n := math.Max(1, float64(m.attempted))
	m.jobs = m.attempted
	m.ops = float64(m.attempted * w.opsPerJob())
	// Jobs run one after another, so each job's ops over the time since
	// the previous one finished is the throughput of that stretch; the
	// median over jobs, like chunked, reads a typical one.
	var rates []float64
	var prev time.Duration
	for i, jr := range w.jobs {
		if !math.IsInf(m.latency[i], 1) {
			rates = append(rates, float64(w.opsPerJob())/(jr.end-prev).Seconds())
		}
		prev = jr.end
	}
	m.throughput = median(rates)
	m.layer["server.submit_ms"] = submitMs / n
	m.layer["client_mean_ms"] = submitMs / n
	m.layer["server.req_bytes"] = reqBytes / n
	m.layer["server.resp_bytes"] = respBytes / n
	m.layer["bench.gen_conns"] = float64(w.dials)
	m.generator = fmt.Sprintf("closed loop, 1 client submitting %s jobs one after another, polling every %gms; %d connections",
		w.kind, w.cfg.PollMs, w.dials)
	if w.dials > 1 {
		m.invalid = fmt.Sprintf("client opened %d connections, budget 1", w.dials)
	}
	return m, nil
}

// replay re-runs the first job in-process, serially, through the public
// calls its campaign makes per trial or per function, and rebuilds the
// job's table from them. Fidelity: the rebuilt table is byte-equal to the
// one the service returned.
func (w *campaign) replay(tr *tracer) (int, bool, error) {
	if len(w.jobs) == 0 || w.refs[0] == nil {
		return 0, false, fmt.Errorf("no finished job to replay")
	}
	g := guard.New(context.Background()).WithObs(obs.NewScope(obs.NewRegistry()))
	var tbl *textplot.Table
	var ops int
	var err error
	if w.kind == "acceptance" {
		tbl, ops, err = replayAcceptance(g, tr, w.acceptanceParams(w.jobs[0].seed))
	} else {
		tbl, ops, err = replayAtlas(g, tr, w.atlasParams(w.jobs[0].seed))
	}
	if err != nil {
		return 0, false, err
	}
	got, err := json.Marshal(tbl)
	if err != nil {
		return 0, false, err
	}
	var served bytes.Buffer
	if err := json.Compact(&served, w.jobs[0].result); err != nil {
		return 0, false, err
	}
	return ops, bytes.Equal(got, served.Bytes()), nil
}

// acceptancePoints is the campaign's utilization grid, accumulated the
// way eval.Acceptance accumulates it.
func acceptancePoints(p eval.AcceptanceParams) []float64 {
	var pts []float64
	for u := p.UStart; u <= p.UEnd+1e-9; u += p.UStep {
		pts = append(pts, u)
	}
	return pts
}

// replayAcceptance runs every trial of the campaign in order: synth.SubRand
// → synth.TaskSet → npr.AssignQ → delay.NewFrontLoaded → four sched.Analyze
// calls (no delay, Algorithm 1, limited, Equation 4, warm-chained as the
// campaign chains them), and tabulates the admission ratios.
func replayAcceptance(g *guard.Ctx, tr *tracer, p eval.AcceptanceParams) (*textplot.Table, int, error) {
	pts := acceptancePoints(p)
	admits := make([][4]int, len(pts))
	ops := 0
	for pt, u := range pts {
		for trial := 0; trial < p.SetsPerPoint; trial++ {
			op := ops
			ops++
			root := tr.begin("eval.trial", op)
			admit, err := acceptanceTrial(g, tr, p, pt, u, trial, op)
			tr.end(root)
			if err != nil {
				return nil, 0, err
			}
			for k, ok := range admit {
				if ok {
					admits[pt][k]++
				}
			}
		}
	}
	tbl := &textplot.Table{
		XLabel: "utilization",
		YLabel: "acceptance ratio",
		Series: []textplot.Series{{Name: "algorithm1"}, {Name: "algorithm1-limited"}, {Name: "equation4"}, {Name: "no-delay"}},
	}
	for pt, u := range pts {
		tbl.X = append(tbl.X, u)
		for k := 0; k < 4; k++ {
			tbl.Series[k].Y = append(tbl.Series[k].Y, float64(admits[pt][k])/float64(p.SetsPerPoint))
		}
	}
	return tbl, ops, nil
}

func acceptanceTrial(g *guard.Ctx, tr *tracer, p eval.AcceptanceParams, pt int, u float64, trial, op int) ([4]bool, error) {
	var admit [4]bool
	sp := tr.begin("synth.subrand", op)
	r := synth.SubRand(p.Seed, pt, trial)
	tr.end(sp)
	sp = tr.begin("synth.taskset", op)
	ts, err := synth.TaskSet(r, synth.TaskSetParams{
		N: p.Tasks, Utilization: u, PeriodLo: 20, PeriodHi: 2000, RoundPeriod: true,
		QFraction: p.QFraction, MinQ: 0.1,
	})
	tr.end(sp)
	if err != nil {
		return admit, err
	}
	sp = tr.begin("npr.assignq", op)
	qs, err := npr.AssignQ(ts, npr.FixedPriority)
	tr.end(sp)
	if err != nil {
		return admit, nil // infeasible even fully preemptively: rejected everywhere
	}
	for i := range ts {
		if qs[i].Q < ts[i].Q {
			ts[i].Q = qs[i].Q
		}
		if ts[i].Q <= 0 {
			ts[i].Q = 1e-3
		}
	}
	sp = tr.begin("delay.build", op)
	fns := make([]delay.Function, len(ts))
	for i, tk := range ts {
		if i == 0 {
			continue
		}
		peak := p.DelayScale * tk.C
		if peak >= tk.Q {
			peak = tk.Q * 0.8
		}
		if fns[i], err = delay.NewFrontLoaded(peak, peak/5, tk.C); err != nil {
			tr.end(sp)
			return admit, err
		}
	}
	tr.end(sp)
	analyze := func(name string, opts sched.Options) (*sched.Result, error) {
		sp := tr.begin(name, op)
		res, err := sched.Analyze(g, ts, opts)
		tr.end(sp)
		if err != nil && guard.Abortive(err) {
			return nil, err
		}
		if err != nil {
			return nil, nil
		}
		return res, nil
	}
	nd, err := analyze("sched.analyze.nd", sched.Options{Delay: make([]delay.Function, len(ts)), Method: sched.Algorithm1})
	if err != nil {
		return admit, err
	}
	var ndRTs, a1RTs []float64
	if nd != nil {
		admit[3], ndRTs = nd.Schedulable, nd.Response
	}
	a1, err := analyze("sched.analyze.alg1", sched.Options{Delay: fns, Method: sched.Algorithm1, Warm: ndRTs})
	if err != nil {
		return admit, err
	}
	if a1 != nil {
		admit[0], a1RTs = a1.Schedulable, a1.Response
	}
	lim, err := analyze("sched.analyze.lim", sched.Options{Delay: fns, Method: sched.Algorithm1, Limited: true, Warm: ndRTs})
	if err != nil {
		return admit, err
	}
	if lim != nil {
		admit[1] = lim.Schedulable
	}
	e4Warm := ndRTs
	if a1RTs != nil {
		e4Warm = a1RTs
	}
	e4, err := analyze("sched.analyze.eq4", sched.Options{Delay: fns, Method: sched.Equation4, Warm: e4Warm})
	if err != nil {
		return admit, err
	}
	if e4 != nil {
		admit[2] = e4.Schedulable
	}
	return admit, nil
}

// atlasFamilies are the atlas campaign's curve families, in table order.
var atlasFamilies = []string{"front", "back", "twopeak"}

// atlasFunction draws one delay function of a family exactly as the atlas
// campaign draws it.
func atlasFunction(r *rand.Rand, fam string, c, q float64) (*delay.Piecewise, error) {
	maxV := q * (0.35 + 0.4*r.Float64())
	pieces := 3 + r.Intn(4)
	xs := make([]float64, 0, pieces+1)
	xs = append(xs, 0)
	for i := 1; i < pieces; i++ {
		xs = append(xs, c*(float64(i)+r.Float64()*0.6)/float64(pieces))
	}
	xs = append(xs, c)
	vs := make([]float64, pieces)
	for i := range vs {
		frac := float64(i) / float64(pieces-1)
		jitter := 0.75 + 0.25*r.Float64()
		switch fam {
		case "front":
			vs[i] = maxV * (1 - frac*0.9) * jitter
		case "back":
			vs[i] = maxV * (0.1 + frac*0.9) * jitter
		default:
			vs[i] = maxV * (0.15 + 0.85*math.Abs(2*frac-1)) * jitter
		}
	}
	return delay.NewPiecewise(xs, vs)
}

// replayAtlas runs every function of the atlas in cell order:
// synth.SubRand → draw → exact.Explorer.Delay → core.Analyze (Algorithm 1
// and Equation 4), and tabulates the cells as the campaign does.
func replayAtlas(g *guard.Ctx, tr *tracer, p eval.AtlasParams) (*textplot.Table, int, error) {
	ex := exact.NewExplorer()
	tbl := &textplot.Table{XLabel: "Q", YLabel: "mean delay / pessimism gap", X: append([]float64(nil), p.Qs...)}
	totalStates, totalNaive, ops := 0, 0, 0
	analyze := func(f delay.Function, q float64, opts core.Options, op int) (core.Result, error) {
		sp := tr.begin("core.analyze", op)
		res, err := core.Analyze(g, f, q, opts)
		tr.endAs(sp, "core.analyze.miss")
		return res, err
	}
	for fam, name := range atlasFamilies {
		ex1 := textplot.Series{Name: name + "/exact"}
		a1 := textplot.Series{Name: name + "/alg1-gap"}
		e4 := textplot.Series{Name: name + "/eq4-gap"}
		for qi, q := range p.Qs {
			var exSum, a1Sum, e4Sum float64
			for trial := 0; trial < p.FuncsPerCell; trial++ {
				op := ops
				ops++
				root := tr.begin("eval.atlas_func", op)
				sp := tr.begin("synth.subrand", op)
				r := synth.SubRand(p.Seed, fam*len(p.Qs)+qi, trial)
				tr.end(sp)
				sp = tr.begin("synth.draw", op)
				f, err := atlasFunction(r, name, p.C, q)
				tr.end(sp)
				if err != nil {
					return nil, 0, err
				}
				sp = tr.begin("exact.delay", op)
				exRes, err := ex.Delay(g, f, q, exact.Options{MaxStates: p.MaxStates, Obs: g.Obs()})
				tr.end(sp)
				if err != nil {
					return nil, 0, err
				}
				alg1, err := analyze(f, q, core.Options{}, op)
				if err != nil {
					return nil, 0, err
				}
				eq4, err := analyze(f, q, core.Options{Method: core.Equation4}, op)
				if err != nil {
					return nil, 0, err
				}
				tr.end(root)
				exSum += exRes.Delay
				a1Sum += alg1.TotalDelay - exRes.Delay
				e4Sum += eq4.TotalDelay - exRes.Delay
				totalStates += exRes.States
				branch := 1 + len(f.Breakpoints())
				naive, grow := 1, 1
				for d := 0; d < exRes.Depth && naive < 1<<30; d++ {
					grow *= branch
					naive += grow
				}
				totalNaive += naive
			}
			n := float64(p.FuncsPerCell)
			ex1.Y = append(ex1.Y, exSum/n)
			a1.Y = append(a1.Y, a1Sum/n)
			e4.Y = append(e4.Y, e4Sum/n)
		}
		tbl.Series = append(tbl.Series, ex1, a1, e4)
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"explored %d states (naive tree bound %d, %.0fx reduction)",
		totalStates, totalNaive, float64(totalNaive)/math.Max(1, float64(totalStates))))
	return tbl, ops, nil
}

func (w *campaign) counters() (moved, zero []string) {
	if w.kind == "acceptance" {
		moved = []string{"server.campaign.requests", "campaign.trials", "sched.rta.iterations",
			"sched.rta.solver.iterations", "core.alg1.runs", "delay.scan.queries"}
		zero = concat(exactCounters, memoCounters, setCounters)
	} else {
		moved = []string{"server.campaign.requests", "campaign.trials", "exact.states", "exact.runs",
			"core.alg1.runs", "core.eq4.runs"}
		zero = concat(schedCounters, memoCounters, setCounters)
	}
	// The checkpoint journal and the job manifest exist only with -data-dir.
	if w.cfg.DataDir {
		moved = append(moved, "journal.appends", "journal.syncs")
	} else {
		zero = append(zero, "journal.appends", "journal.syncs")
	}
	return moved, zero
}
