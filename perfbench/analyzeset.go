package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/eval"
	"fnpr/internal/guard"
	"fnpr/internal/memo"
	"fnpr/internal/obs"
	"fnpr/internal/spec"
	"fnpr/internal/task"
)

// analyzeSetConfig fixes the analyzeset-edit workload (config.json).
type analyzeSetConfig struct {
	// Sets task sets of Tasks tasks each form the working set; every task
	// has a piecewise curve of PiecesMin..PiecesMax pieces.
	Sets      int `json:"sets"`
	Tasks     int `json:"tasks"`
	PiecesMin int `json:"pieces_min"`
	PiecesMax int `json:"pieces_max"`
	// Qs is the Q grid of every request.
	Qs []float64 `json:"qs"`
	// LatencyLimitMs is the latency limit behind goodput_frac.
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	// MaxRPS sizes the pre-drawn edit list; the phase stops if it runs out.
	MaxRPS float64 `json:"max_rps"`
	// ReplayOps is the number of leading requests the traced replay runs.
	ReplayOps int `json:"replay_ops"`
}

// asEdit is one request: set the value of one piece of one task's curve.
// The first request of every set is its unedited, cold submission
// (task < 0).
type asEdit struct {
	set, task, piece int
	value            float64
}

// asSet is the mutable state of one working-set task set.
type asSet struct {
	tasks []spec.Task
	// chunks holds each task's JSON encoding; an edit re-encodes one.
	chunks [][]byte
	// version counts the edits applied to each task.
	version []int
}

type analyzeSetEdit struct {
	cfg analyzeSetConfig

	initial []spec.Task // set-major: set s task k at s*Tasks+k
	edits   []asEdit
	qsJSON  []byte

	calls []call
	// versions records, for every sent request, each task's version.
	versions [][]int
	rps      float64
	dials    int64
	refs     map[[3]int]json.RawMessage // (set, task, version) → SweepResult JSON
}

func (w *analyzeSetEdit) generate(seed int64, seconds float64) error {
	r := rand.New(rand.NewSource(seed))
	qs, err := json.Marshal(w.cfg.Qs)
	if err != nil {
		return err
	}
	w.qsJSON = qs
	qmin := w.cfg.Qs[0]
	for s := 0; s < w.cfg.Sets; s++ {
		for k := 0; k < w.cfg.Tasks; k++ {
			c := math.Round(50 + 150*r.Float64())
			pieces := w.cfg.PiecesMin + r.Intn(w.cfg.PiecesMax-w.cfg.PiecesMin+1)
			// Every curve stays below the smallest Q, so no grid point
			// diverges.
			xs, vs, _ := randomCurve(r, c, pieces, qmin*(0.3+0.5*r.Float64()))
			w.initial = append(w.initial, spec.Task{
				Name: fmt.Sprintf("t%d", k), C: c, T: math.Round(c * (8 + 16*r.Float64())), Prio: k,
				Delay: &spec.Delay{Kind: "piecewise", Breakpoints: xs, Values: vs},
			})
		}
	}
	for s := 0; s < w.cfg.Sets; s++ {
		w.edits = append(w.edits, asEdit{set: s, task: -1})
	}
	for len(w.edits) < int(w.cfg.MaxRPS*seconds) {
		s, k := r.Intn(w.cfg.Sets), r.Intn(w.cfg.Tasks)
		vs := w.initial[s*w.cfg.Tasks+k].Delay.Values
		vmax := qmin * 0.8
		w.edits = append(w.edits, asEdit{set: s, task: k, piece: r.Intn(len(vs)),
			value: math.Round(vmax*r.Float64()*1e6) / 1e6})
	}
	return nil
}

// newSets returns fresh mutable copies of the initial working set.
func (w *analyzeSetEdit) newSets() ([]*asSet, error) {
	sets := make([]*asSet, w.cfg.Sets)
	for s := range sets {
		st := &asSet{version: make([]int, w.cfg.Tasks)}
		for k := 0; k < w.cfg.Tasks; k++ {
			tk := w.initial[s*w.cfg.Tasks+k]
			d := *tk.Delay
			d.Values = append([]float64(nil), d.Values...)
			tk.Delay = &d
			st.tasks = append(st.tasks, tk)
			chunk, err := json.Marshal(tk)
			if err != nil {
				return nil, err
			}
			st.chunks = append(st.chunks, chunk)
		}
		sets[s] = st
	}
	return sets, nil
}

// apply performs edit e on sets and returns the request body parts.
func (w *analyzeSetEdit) apply(sets []*asSet, e asEdit) ([][]byte, error) {
	st := sets[e.set]
	if e.task >= 0 {
		st.tasks[e.task].Delay.Values[e.piece] = e.value
		chunk, err := json.Marshal(st.tasks[e.task])
		if err != nil {
			return nil, err
		}
		st.chunks[e.task] = chunk
		st.version[e.task]++
	}
	parts := [][]byte{[]byte(`{"spec":{"policy":"fp","tasks":[`)}
	for k, c := range st.chunks {
		if k > 0 {
			parts = append(parts, []byte(","))
		}
		parts = append(parts, c)
	}
	return append(parts, []byte(`]},"qs":`), w.qsJSON, []byte(`,"delta":true}`)), nil
}

func (w *analyzeSetEdit) drive(srv *server, seconds float64) error {
	sets, err := w.newSets()
	if err != nil {
		return err
	}
	p := newPool(1)
	defer p.close()
	url := srv.base + "/v1/analyzeset"
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for _, e := range w.edits {
		if time.Since(start) >= dur {
			break
		}
		parts, err := w.apply(sets, e)
		if err != nil {
			return err
		}
		w.versions = append(w.versions, append([]int(nil), sets[e.set].version...))
		sent := time.Since(start)
		status, body := do(p.clients[0], "POST", url, parts...)
		w.calls = append(w.calls, call{status: status, body: body, sent: sent, done: time.Since(start)})
	}
	w.rps = windowedRate(w.calls, dur)
	w.dials = p.dials.Load()
	return nil
}

// references computes the uncached eval.AnalyzeSet answer of every
// (set, task, version) the first n requests carried. A task's curve points
// depend only on its own curve and the Q grid, so each distinct task
// version is analysed once, as a one-task set.
func (w *analyzeSetEdit) references(n int) error {
	sets, err := w.newSets()
	if err != nil {
		return err
	}
	type job struct {
		key [3]int
		tk  spec.Task
	}
	var jobs []job
	w.refs = map[[3]int]json.RawMessage{}
	add := func(s, k int) {
		key := [3]int{s, k, sets[s].version[k]}
		if _, ok := w.refs[key]; ok {
			return
		}
		w.refs[key] = nil
		tk := sets[s].tasks[k]
		d := *tk.Delay
		d.Values = append([]float64(nil), d.Values...)
		tk.Delay = &d
		jobs = append(jobs, job{key, tk})
	}
	for _, e := range w.edits[:n] {
		if _, err := w.apply(sets, e); err != nil {
			return err
		}
		if e.task < 0 {
			for k := range sets[e.set].tasks {
				add(e.set, k)
			}
		} else {
			add(e.set, e.task)
		}
	}
	out := make([]json.RawMessage, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += workers {
				out[i], errs[i] = analyzeTask(jobs[i].tk, w.cfg.Qs)
			}
		}(g)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return errs[i]
		}
		w.refs[j.key] = out[i]
	}
	return nil
}

// analyzeTask is the uncached reference: eval.AnalyzeSet over a one-task
// set, returned as the JSON of its single SweepResult.
func analyzeTask(ts spec.Task, qs []float64) (json.RawMessage, error) {
	fn, err := ts.Delay.Build(ts.C)
	if err != nil {
		return nil, err
	}
	tk := task.Task{Name: ts.Name, C: ts.C, T: ts.T, Prio: ts.Prio}
	res, err := eval.AnalyzeSet(nil, task.Set{tk}, []delay.Function{fn}, eval.SweepOptions{Qs: qs, Workers: 1})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res[0])
}

// analyzeSetResponse is the part of a /v1/analyzeset answer the check
// compares.
type analyzeSetResponse struct {
	Results    []json.RawMessage `json:"results"`
	Reused     int               `json:"reused"`
	Recomputed int               `json:"recomputed"`
}

// check decodes one recorded 200 body and reports whether every task's
// curve is byte-equal to its reference and reused + recomputed equals the
// analysed terms.
func (w *analyzeSetEdit) check(i int, body []byte) (analyzeSetResponse, bool) {
	var got analyzeSetResponse
	if err := json.Unmarshal(body, &got); err != nil || len(got.Results) != w.cfg.Tasks {
		return got, false
	}
	if got.Reused+got.Recomputed != w.cfg.Tasks*len(w.cfg.Qs) {
		return got, false
	}
	s := w.edits[i].set
	var buf bytes.Buffer
	for k, raw := range got.Results {
		buf.Reset()
		if json.Compact(&buf, raw) != nil || !bytes.Equal(buf.Bytes(), w.refs[[3]int{s, k, w.versions[i][k]}]) {
			return got, false
		}
	}
	return got, true
}

func (w *analyzeSetEdit) measure() (*measurement, error) {
	if err := w.references(max(len(w.calls), min(w.cfg.ReplayOps, len(w.edits)))); err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	m := &measurement{limitMs: w.cfg.LatencyLimitMs, throughput: w.rps, layer: map[string]float64{}}
	var reqBytes, respBytes, clientMs, reused, recomputed float64
	for i, cl := range w.calls {
		m.attempted++
		respBytes += float64(len(cl.body))
		if cl.status != 200 {
			m.fail(fmt.Sprintf("status %d", cl.status), cl.body)
			m.latency = append(m.latency, math.Inf(1))
			continue
		}
		rc, ok := w.check(i, cl.body)
		if !ok {
			m.fail("mismatch", cl.body)
			m.mismatches++
			m.latency = append(m.latency, math.Inf(1))
			continue
		}
		reused += float64(rc.Reused)
		recomputed += float64(rc.Recomputed)
		m.latency = append(m.latency, ms(cl.done-cl.sent))
		clientMs += ms(cl.done - cl.sent)
	}
	// Request bodies are rebuilt rather than kept; their size is the
	// working set's encoded size, so sample it from a fresh copy.
	sets, err := w.newSets()
	if err != nil {
		return nil, err
	}
	for s := range sets {
		parts, err := w.apply(sets, asEdit{set: s, task: -1})
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			reqBytes += float64(len(p))
		}
	}
	n := math.Max(1, float64(m.attempted))
	m.tail = m.latency
	m.ops = float64(m.attempted)
	m.layer["server.req_bytes"] = reqBytes / float64(len(sets))
	m.layer["server.resp_bytes"] = respBytes / n
	m.layer["client_mean_ms"] = clientMs / math.Max(1, n-float64(m.failed))
	m.layer["bench.gen_conns"] = float64(w.dials)
	m.generator = fmt.Sprintf("closed loop, 1 client, %d connections", w.dials)
	if w.dials > 1 {
		m.invalid = fmt.Sprintf("client opened %d connections, budget 1", w.dials)
	}
	m.layer["bench.repeat_frac"] = ratio(reused, reused+recomputed)
	return m, nil
}

// analyzeSetRequest mirrors the service's /v1/analyzeset wire form.
type analyzeSetRequest struct {
	Spec   spec.File `json:"spec"`
	Qs     []float64 `json:"qs,omitempty"`
	Delta  bool      `json:"delta,omitempty"`
	Solver string    `json:"solver,omitempty"`
}

// replay runs the leading requests in order through the calls the handler
// makes: decode → spec.File.Build → eval.AnalyzeSet (with a result cache)
// → encode. Fidelity: every curve equals the uncached reference.
func (w *analyzeSetEdit) replay(tr *tracer) (int, bool, error) {
	sets, err := w.newSets()
	if err != nil {
		return 0, false, err
	}
	sc := obs.NewScope(obs.NewRegistry())
	cache := core.NewResultCache(memo.Options{Obs: sc})
	n := min(w.cfg.ReplayOps, len(w.edits))
	fidelity := true
	var body, out bytes.Buffer
	for i := 0; i < n; i++ {
		e := w.edits[i]
		parts, err := w.apply(sets, e)
		if err != nil {
			return 0, false, err
		}
		body.Reset()
		for _, p := range parts {
			body.Write(p)
		}
		g := guard.New(context.Background()).WithObs(sc)

		root := tr.begin("op", i)
		sp := tr.begin("server.decode", i)
		var req analyzeSetRequest
		dec := json.NewDecoder(bytes.NewReader(body.Bytes()))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
		tr.end(sp)
		if err != nil {
			return 0, false, fmt.Errorf("request %d: %w", i, err)
		}
		sp = tr.begin("spec.build", i)
		prob, err := req.Spec.Build()
		tr.end(sp)
		if err != nil {
			return 0, false, fmt.Errorf("request %d: %w", i, err)
		}
		sp = tr.begin("eval.analyzeset", i)
		res, err := eval.AnalyzeSet(g, prob.Tasks, prob.Delay, eval.SweepOptions{Qs: req.Qs, Obs: sc, Memo: cache})
		tr.end(sp)
		if err != nil {
			return 0, false, fmt.Errorf("request %d: %w", i, err)
		}
		sp = tr.begin("server.encode", i)
		var reused, recomputed int
		for _, r := range res {
			for _, pt := range r.Points {
				if pt.Cached {
					reused++
				} else {
					recomputed++
				}
			}
		}
		out.Reset()
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		err = enc.Encode(map[string]any{
			"policy": prob.Policy, "qs": req.Qs, "results": res, "steps": g.Steps(),
			"reused": reused, "recomputed": recomputed,
		})
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return 0, false, err
		}
		for k, r := range res {
			got, err := json.Marshal(r)
			if err != nil || !bytes.Equal(got, w.refs[[3]int{e.set, k, sets[e.set].version[k]}]) {
				fidelity = false
			}
		}
	}
	return n, fidelity, nil
}

func (w *analyzeSetEdit) durable() bool { return true }

func (w *analyzeSetEdit) counters() (moved, zero []string) {
	moved = []string{"server.analyzeset.requests", "memo.hits", "memo.misses", "memo.puts",
		"sweep.analyzeset.recomputed", "sweep.analyzeset.reused",
		"delay.index.builds", "delay.index.queries", "core.alg1.runs"}
	zero = concat(exactCounters, schedCounters, campaignCounters)
	return moved, zero
}
