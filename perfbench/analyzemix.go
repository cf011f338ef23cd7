package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fnpr/internal/core"
	"fnpr/internal/guard"
	"fnpr/internal/memo"
	"fnpr/internal/obs"
	"fnpr/internal/spec"
)

// analyzeMixConfig fixes the analyze-mix workload (config.json).
type analyzeMixConfig struct {
	// RateRPS is the open-loop arrival rate, about half the seed
	// commit's closed-loop capacity.
	RateRPS float64 `json:"rate_rps"`
	// OpenShare is the share of the run spent in the open-loop phase; the
	// rest is the closed-loop capacity phase.
	OpenShare float64 `json:"open_share"`
	// LatencyLimitMs is the latency limit behind goodput_frac.
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	// RepeatShare of the requests repeat an earlier body, drawn
	// Zipf-weighted by recency from the last HotSet distinct requests.
	RepeatShare float64 `json:"repeat_share"`
	HotSet      int     `json:"hot_set"`
	// MaxCapacityRPS sizes the pre-generated stream of the closed-loop
	// phase; the phase stops early if it runs out.
	MaxCapacityRPS float64 `json:"max_capacity_rps"`
	// ReplayOps is the number of leading requests the traced replay runs.
	ReplayOps int `json:"replay_ops"`
}

// amCurve is one delay function of the mix with its wire prefix
// `{"delay":{...},"c":C`, shared by every request on the curve.
type amCurve struct {
	delay *spec.Delay
	c     float64
	maxF  float64
	head  []byte
}

// amReq is one distinct /v1/analyze request; tail closes the body head.
type amReq struct {
	curve   *amCurve
	q       float64
	method  core.Method
	limited bool
	maxPre  int
	tail    []byte
}

// amRef is the uncached in-process answer to one distinct request.
type amRef struct {
	res core.Result
	err error
}

type analyzeMix struct {
	cfg      analyzeMixConfig
	clients  int
	lagBound float64

	reqs  []amReq
	seq   []int32 // request stream: indices into reqs
	nOpen int     // the first nOpen entries form the open-loop phase

	openSeconds   float64
	closedSeconds float64
	open          []call // indexed like seq[:nOpen]
	closed        []call // indexed like seq[nOpen:]
	nClosed       int
	capacity      float64
	dials         int64
	refs          []*amRef // by distinct request, filled by measure
}

func (w *analyzeMix) generate(seed int64, seconds float64) error {
	r := rand.New(rand.NewSource(seed))
	logUniform := func(lo, hi float64) float64 { return lo * math.Exp(r.Float64()*math.Log(hi/lo)) }
	newCurve := func(d *spec.Delay, c, maxF float64) (*amCurve, error) {
		dj, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		head := append([]byte(`{"delay":`), dj...)
		head = append(head, `,"c":`...)
		head = strconv.AppendFloat(head, c, 'g', -1, 64)
		return &amCurve{delay: d, c: c, maxF: maxF, head: head}, nil
	}
	piecewise := func(pieces int) (*amCurve, error) {
		c := math.Round(logUniform(40, 2000))
		xs, vs, maxF := randomCurve(r, c, pieces, 1+19*r.Float64())
		return newCurve(&spec.Delay{Kind: "piecewise", Breakpoints: xs, Values: vs}, c, maxF)
	}
	var large, gauss, mid []*amCurve
	for i := 0; i < 24; i++ {
		cv, err := piecewise(500 + r.Intn(3501))
		if err != nil {
			return err
		}
		large = append(large, cv)
	}
	for i := 0; i < 32; i++ {
		c := math.Round(logUniform(40, 2000))
		amp, off := 2+18*r.Float64(), 2*r.Float64()
		sd := c * (0.02 + 0.1*r.Float64())
		d := &spec.Delay{Kind: "gaussian", Amp: amp, Mu: c * (0.2 + 0.6*r.Float64()), Sigma2: sd * sd, Offset: off, Pieces: 1000}
		cv, err := newCurve(d, c, amp+off)
		if err != nil {
			return err
		}
		gauss = append(gauss, cv)
	}
	for i := 0; i < 1024; i++ {
		cv, err := piecewise(8 + r.Intn(57))
		if err != nil {
			return err
		}
		mid = append(mid, cv)
	}
	fresh := func() (amReq, error) {
		var cv *amCurve
		var err error
		switch u := r.Float64(); {
		case u < 0.15:
			c := math.Round(logUniform(40, 2000))
			v := 0.5 + 19.5*r.Float64()
			cv, err = newCurve(&spec.Delay{Kind: "constant", Value: v}, c, v)
		case u < 0.45:
			c := math.Round(logUniform(40, 2000))
			peak := 1 + 19*r.Float64()
			cv, err = newCurve(&spec.Delay{Kind: "frontloaded", Peak: peak, Tail: peak * (0.05 + 0.45*r.Float64())}, c, peak)
		case u < 0.80:
			cv = mid[r.Intn(len(mid))]
		case u < 0.90:
			cv = gauss[r.Intn(len(gauss))]
		default:
			cv = large[r.Intn(len(large))]
		}
		if err != nil {
			return amReq{}, err
		}
		// Q clears max f by at least c/1000, so Algorithm 1 advances at
		// least that far per window and every request stays well inside the
		// service's default step budget.
		q := math.Max(cv.maxF*(1.2+4.8*r.Float64()), cv.maxF+cv.c/1000)
		if r.Float64() < 0.03 {
			q = cv.maxF * (0.5 + 0.5*r.Float64()) // Q <= max f: diverges
		}
		rq := amReq{curve: cv, q: q, method: core.Algorithm1}
		switch v := r.Float64(); {
		case v < 0.1:
			rq.method = core.Equation4
		case v < 0.2:
			rq.limited, rq.maxPre = true, 1+r.Intn(8)
		}
		tail := append([]byte(`,"q":`), strconv.FormatFloat(q, 'g', -1, 64)...)
		if rq.method == core.Equation4 {
			tail = append(tail, `,"method":"equation4"`...)
		}
		if rq.limited {
			tail = append(tail, `,"limited":true,"max_preemptions":`...)
			tail = strconv.AppendInt(tail, int64(rq.maxPre), 10)
		}
		rq.tail = append(tail, '}')
		return rq, nil
	}

	w.openSeconds = seconds * w.cfg.OpenShare
	w.closedSeconds = seconds - w.openSeconds
	w.nOpen = int(w.cfg.RateRPS * w.openSeconds)
	n := w.nOpen + int(w.cfg.MaxCapacityRPS*w.closedSeconds)
	// The hot set is the HotSet most recent distinct requests, ranked by
	// recency: a repeat picks rank k with Zipf weight, so hot bodies follow
	// the fresh mix instead of a few early draws dominating a whole run.
	zipf := rand.NewZipf(r, 1.1, 1, uint64(w.cfg.HotSet-1))
	w.seq = make([]int32, n)
	for i := range w.seq {
		if len(w.reqs) > 0 && r.Float64() < w.cfg.RepeatShare {
			k := int(zipf.Uint64() % uint64(len(w.reqs)))
			w.seq[i] = int32(len(w.reqs) - 1 - k)
			continue
		}
		rq, err := fresh()
		if err != nil {
			return err
		}
		w.seq[i] = int32(len(w.reqs))
		w.reqs = append(w.reqs, rq)
	}
	return nil
}

// randomCurve draws a piecewise-constant curve over [0, c] with the given
// piece count: jittered breakpoints ending exactly at c and a random walk
// of values in [0, vmax]. It returns the curve and its maximum.
func randomCurve(r *rand.Rand, c float64, pieces int, vmax float64) (xs, vs []float64, maxF float64) {
	xs = make([]float64, pieces+1)
	gaps := make([]float64, pieces)
	total := 0.0
	for i := range gaps {
		gaps[i] = 0.25 + r.Float64()
		total += gaps[i]
	}
	acc := 0.0
	for i := 1; i < pieces; i++ {
		acc += gaps[i-1]
		xs[i] = c * acc / total
	}
	xs[pieces] = c
	vs = make([]float64, pieces)
	v := vmax * r.Float64()
	for i := range vs {
		v += vmax * 0.2 * (r.Float64() - 0.5)
		v = math.Min(vmax, math.Max(0, v))
		vs[i] = v
		maxF = math.Max(maxF, v)
	}
	return xs, vs, maxF
}

func (w *analyzeMix) drive(srv *server, seconds float64) error {
	p := newPool(w.clients)
	defer p.close()
	url := srv.base + "/v1/analyze"
	send := func(c *http.Client, i int) (int, []byte) {
		rq := &w.reqs[w.seq[i]]
		return do(c, "POST", url, rq.curve.head, rq.tail)
	}

	// Open loop: request i is due at i/rate; latency runs from that due
	// time, so a stall also charges the requests queued behind it.
	w.open = make([]call, w.nOpen)
	interval := time.Duration(float64(time.Second) / w.cfg.RateRPS)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= w.nOpen {
					return
				}
				due := time.Duration(i) * interval
				if d := due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				status, body := send(c, i)
				w.open[i] = call{status: status, body: body, sent: sent, done: time.Since(start)}
			}
		}(c)
	}
	wg.Wait()

	// Closed loop: every client sends its next request as soon as the
	// previous one returns, until the phase ends.
	closedDur := time.Duration(w.closedSeconds * float64(time.Second))
	w.closed = make([]call, len(w.seq)-w.nOpen)
	next.Store(0)
	start = time.Now()
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Since(start) < closedDur {
				i := int(next.Add(1) - 1)
				if i >= len(w.closed) {
					return
				}
				sent := time.Since(start)
				status, body := send(c, w.nOpen+i)
				w.closed[i] = call{status: status, body: body, sent: sent, done: time.Since(start)}
			}
		}(c)
	}
	wg.Wait()
	w.nClosed = min(int(next.Load()), len(w.closed))
	w.capacity = windowedRate(w.closed[:w.nClosed], closedDur)
	w.dials = p.dials.Load()
	return nil
}

// rateWindow is the width of the windows windowedRate counts 200s in.
const rateWindow = 500 * time.Millisecond

// windowedRate is the median, over the rateWindow-wide windows of a
// closed-loop phase of length dur, of the 200 responses completed per
// second. Like chunked it reads a typical stretch of the phase rather than
// one that a short stall of the shared machine happened to hit.
func windowedRate(calls []call, dur time.Duration) float64 {
	n := int(dur / rateWindow)
	if n == 0 {
		n = 1
	}
	counts := make([]float64, n)
	for _, cl := range calls {
		if w := int(cl.done / rateWindow); cl.status == 200 && w < n {
			counts[w]++
		}
	}
	return median(counts) / rateWindow.Seconds()
}

// reference computes (once) the uncached in-process answer to distinct
// request id: the same spec.Delay.Build and core.Analyze the handler runs,
// without the result cache.
func (w *analyzeMix) reference(id int32) *amRef {
	if ref := w.refs[id]; ref != nil {
		return ref
	}
	rq := &w.reqs[id]
	ref := &amRef{}
	fn, err := rq.curve.delay.Build(rq.curve.c)
	if err == nil {
		ref.res, err = core.Analyze(nil, fn, rq.q, core.Options{Method: rq.method, Limited: rq.limited, MaxPreemptions: rq.maxPre})
	}
	ref.err = err
	w.refs[id] = ref
	return ref
}

// analyzeResponse is the part of a /v1/analyze answer the check compares.
type analyzeResponse struct {
	TotalDelay  json.RawMessage `json:"total_delay"`
	Preemptions int             `json:"preemptions"`
	Diverged    bool            `json:"diverged"`
}

// matches reports whether a recorded 200 body carries exactly ref's
// total_delay (bit for bit), preemptions and diverged.
func (ref *amRef) matches(body []byte) bool {
	if ref.err != nil {
		return false
	}
	var got analyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return false
	}
	return sameNumber(got.TotalDelay, ref.res.TotalDelay) &&
		got.Preemptions == ref.res.Preemptions && got.Diverged == ref.res.Diverged
}

// sameNumber compares a JSON number, or the "+Inf"/"-Inf"/"NaN" strings the
// service uses for non-finite values, with v bit for bit.
func sameNumber(raw json.RawMessage, v float64) bool {
	var s string
	if json.Unmarshal(raw, &s) == nil {
		switch s {
		case "+Inf":
			return math.IsInf(v, 1)
		case "-Inf":
			return math.IsInf(v, -1)
		case "NaN":
			return math.IsNaN(v)
		}
		return false
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	return err == nil && math.Float64bits(f) == math.Float64bits(v)
}

func (w *analyzeMix) measure() (*measurement, error) {
	w.refs = make([]*amRef, len(w.reqs))
	sent := w.seq[:w.nOpen+w.nClosed]
	// Compute the references in parallel, outside any timed window; each
	// worker owns a disjoint stripe of the distinct requests.
	need := make([]bool, len(w.reqs))
	for _, id := range sent {
		need[id] = true
	}
	for _, id := range w.seq[:min(w.cfg.ReplayOps, len(w.seq))] {
		need[id] = true
	}
	var wg sync.WaitGroup
	for k := 0; k < w.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for id := k; id < len(w.reqs); id += w.clients {
				if need[id] {
					w.reference(int32(id))
				}
			}
		}(k)
	}
	wg.Wait()

	m := &measurement{limitMs: w.cfg.LatencyLimitMs, throughput: w.capacity, layer: map[string]float64{}}
	seen := make([]bool, len(w.reqs))
	var repeats, reqBytes, respBytes, clientMs float64
	var lags []float64
	check := func(i int, cl call) bool {
		id := w.seq[i]
		if seen[id] {
			repeats++
		}
		seen[id] = true
		rq := &w.reqs[id]
		reqBytes += float64(len(rq.curve.head) + len(rq.tail))
		respBytes += float64(len(cl.body))
		m.attempted++
		if cl.status != 200 {
			m.fail(fmt.Sprintf("status %d", cl.status), cl.body)
			return false
		}
		clientMs += ms(cl.done - cl.sent)
		if !w.refs[id].matches(cl.body) {
			m.fail("mismatch", cl.body)
			m.mismatches++
			return false
		}
		return true
	}
	interval := time.Duration(float64(time.Second) / w.cfg.RateRPS)
	var lastSent time.Duration
	for i, cl := range w.open {
		due := time.Duration(i) * interval
		lags = append(lags, ms(cl.sent-due))
		lastSent = max(lastSent, cl.sent)
		if check(i, cl) {
			m.latency = append(m.latency, ms(cl.done-due))
		} else {
			m.latency = append(m.latency, math.Inf(1))
		}
	}
	for i, cl := range w.closed[:w.nClosed] {
		check(w.nOpen+i, cl)
	}
	m.tail = m.latency
	m.ops = float64(m.attempted)
	n := float64(m.attempted)
	m.layer["bench.gen_lag_p99_ms"] = percentile(lags, 0.99)
	m.layer["bench.gen_conns"] = float64(w.dials)
	m.layer["bench.repeat_frac"] = repeats / n
	m.layer["server.req_bytes"] = reqBytes / n
	m.layer["server.resp_bytes"] = respBytes / n
	m.layer["client_mean_ms"] = clientMs / math.Max(1, n-float64(m.failed))
	// The generator fell behind when its achieved send rate is below the
	// fixed rate by more than the lag bound.
	if achieved := float64(w.nOpen) / lastSent.Seconds(); achieved < (1-w.lagBound)*w.cfg.RateRPS {
		m.invalid = fmt.Sprintf("open-loop generator fell behind: sent %.0f req/s of %.0f", achieved, w.cfg.RateRPS)
	}
	m.generator = fmt.Sprintf("open loop at %.0f req/s for %.1fs, then closed loop for %.1fs; %d client goroutines, %d connections",
		w.cfg.RateRPS, w.openSeconds, w.closedSeconds, w.clients, w.dials)
	if w.dials > int64(w.clients) {
		m.invalid = fmt.Sprintf("generator opened %d connections, budget %d", w.dials, w.clients)
	}
	return m, nil
}

// analyzeRequest mirrors the service's /v1/analyze wire form.
type analyzeRequest struct {
	Delay          *spec.Delay `json:"delay"`
	C              float64     `json:"c"`
	Q              float64     `json:"q"`
	Method         string      `json:"method,omitempty"`
	Limited        bool        `json:"limited,omitempty"`
	MaxPreemptions int         `json:"max_preemptions,omitempty"`
	Solver         string      `json:"solver,omitempty"`
}

// replay runs the leading requests in order through the calls the handler
// makes: decode → spec.Delay.Build → core.Analyze (with a result cache) →
// encode. Fidelity: every answer equals the uncached reference.
func (w *analyzeMix) replay(tr *tracer) (int, bool, error) {
	sc := obs.NewScope(obs.NewRegistry())
	cache := core.NewResultCache(memo.Options{Obs: sc})
	g := guard.New(context.Background()).WithObs(sc)
	n := min(w.cfg.ReplayOps, len(w.seq))
	fidelity := true
	var body, out bytes.Buffer
	for i := 0; i < n; i++ {
		id := w.seq[i]
		rq := &w.reqs[id]
		body.Reset()
		body.Write(rq.curve.head)
		body.Write(rq.tail)

		root := tr.begin("op", i)
		sp := tr.begin("server.decode", i)
		var req analyzeRequest
		dec := json.NewDecoder(bytes.NewReader(body.Bytes()))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		tr.end(sp)
		if err != nil {
			return 0, false, fmt.Errorf("request %d: %w", i, err)
		}
		method := core.Algorithm1
		if req.Method == "equation4" {
			method = core.Equation4
		}
		sp = tr.begin("spec.build", i)
		fn, err := req.Delay.Build(req.C)
		tr.end(sp)
		if err != nil {
			return 0, false, fmt.Errorf("request %d: %w", i, err)
		}
		sp = tr.begin("core.analyze", i)
		res, err := core.Analyze(g, fn, req.Q, core.Options{
			Method: method, Limited: req.Limited, MaxPreemptions: req.MaxPreemptions, Memo: cache,
		})
		if res.Cached {
			tr.endAs(sp, "core.analyze.hit")
		} else {
			tr.endAs(sp, "core.analyze.miss")
		}
		if err != nil {
			return 0, false, fmt.Errorf("request %d: %w", i, err)
		}
		sp = tr.begin("server.encode", i)
		resp := map[string]any{
			"total_delay": jsonNum(res.TotalDelay),
			"preemptions": res.Preemptions,
			"diverged":    res.Diverged,
			"steps":       g.Steps(),
		}
		if res.Cached {
			resp["cached"] = true
		}
		out.Reset()
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return 0, false, err
		}
		ref := w.refs[id]
		if ref.err != nil || math.Float64bits(ref.res.TotalDelay) != math.Float64bits(res.TotalDelay) ||
			ref.res.Preemptions != res.Preemptions || ref.res.Diverged != res.Diverged {
			fidelity = false
		}
	}
	return n, fidelity, nil
}

// jsonNum mirrors the service's encoding of non-finite floats.
func jsonNum(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return v
	}
}

func (w *analyzeMix) durable() bool { return true }

func (w *analyzeMix) counters() (moved, zero []string) {
	moved = []string{"server.analyze.requests", "memo.hits", "memo.misses", "memo.puts",
		"core.alg1.runs", "core.alg1.iterations", "core.eq4.runs", "delay.scan.queries"}
	zero = concat(exactCounters, schedCounters, campaignCounters, setCounters, []string{"delay.index.builds"})
	return moved, zero
}
