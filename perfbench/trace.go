package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer during the replay. parent is the
// index of the enclosing span (-1 for a root); op identifies the replayed
// request, trial or function the span belongs to.
type span struct {
	name       string
	parent     int32
	op         int32
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans in memory on a single goroutine. The zero tracer is
// off: begin and end cost a branch each, which is how the untraced replay
// runs the same code.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	cur   int32
}

func newTracer() *tracer {
	return &tracer{on: true, epoch: time.Now(), spans: make([]span, 0, 1<<16), cur: -1}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string, op int) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: t.cur, op: int32(op), start: int64(time.Since(t.epoch))})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	t.cur = s.parent
}

// endAs closes the span and renames it, for calls whose outcome picks the
// span name (a cache hit or miss).
func (t *tracer) endAs(id int32, name string) {
	if id < 0 {
		return
	}
	t.spans[id].name = name
	t.end(id)
}

// spanMetric maps a span name to the per-layer metric of its mean self
// time in µs. Root spans whose name is listed report their mean inclusive
// time instead (the eval layer's unit of work).
var spanMetric = map[string]string{
	"server.decode":      "server.decode_us",
	"server.encode":      "server.encode_us",
	"spec.build":         "spec.build_us",
	"core.analyze.hit":   "core.analyze_hit_us",
	"core.analyze.miss":  "core.analyze_miss_us",
	"eval.analyzeset":    "eval.analyzeset_us",
	"eval.trial":         "eval.trial_us",
	"eval.atlas_func":    "eval.atlas_func_us",
	"synth.subrand":      "synth.subrand_us",
	"synth.taskset":      "synth.taskset_us",
	"synth.draw":         "synth.draw_us",
	"npr.assignq":        "npr.assignq_us",
	"delay.build":        "delay.build_us",
	"sched.analyze.nd":   "sched.analyze_us.nodelay",
	"sched.analyze.alg1": "sched.analyze_us.alg1",
	"sched.analyze.lim":  "sched.analyze_us.limited",
	"sched.analyze.eq4":  "sched.analyze_us.eq4",
	"exact.delay":        "exact.delay_us",
}

// layerMetrics computes, for every span name, the mean self time per span
// (duration minus the time its child spans cover) in µs, plus
// bench.span_coverage_frac: the share of root-span time covered by the
// roots' child spans.
func (t *tracer) layerMetrics() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]int64{}
	incl := map[string]int64{}
	count := map[string]int{}
	var rootTotal, rootCovered int64
	for i, s := range t.spans {
		d := s.end - s.start
		self[s.name] += d - child[i]
		incl[s.name] += d
		count[s.name]++
		if s.parent < 0 {
			rootTotal += d
			rootCovered += child[i]
		}
	}
	out := map[string]float64{}
	for name, metric := range spanMetric {
		n := count[name]
		if n == 0 {
			continue
		}
		v := self[name]
		if strings.HasPrefix(name, "eval.") {
			v = incl[name]
		}
		out[metric] = float64(v) / float64(n) / 1e3
	}
	if rootTotal > 0 {
		out["bench.span_coverage_frac"] = float64(rootCovered) / float64(rootTotal)
	}
	return out
}

// write saves the spans as tab-separated lines: id, parent, op, name,
// start_ns, end_ns.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# workload %s: id parent op name start_ns end_ns\n", workload)
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
