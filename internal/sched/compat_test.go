package sched

import (
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// Test-local shims over Analyze and the package internals, standing in for
// the pre-Analyze entry points whose deprecation window closed. The
// in-package suites were written against these names; the thin adapters
// preserve that coverage verbatim while the exported surface stays
// consolidated (tools/lintapi ignores _test.go files).

func ResponseTimes(ts task.Set) ([]float64, error) {
	return ResponseTimesCtx(nil, ts)
}

func ResponseTimesCtx(g *guard.Ctx, ts task.Set) ([]float64, error) {
	if err := validateForRTA(ts); err != nil {
		return nil, err
	}
	return responseTimes(g, g.Obs(), ts, nil, nil, nil)
}

func ResponseTimesCRPD(ts task.Set, m CRPDMethod, p CRPDParams) ([]float64, error) {
	return ResponseTimesCRPDCtx(nil, ts, m, p)
}

func ResponseTimesCRPDCtx(g *guard.Ctx, ts task.Set, m CRPDMethod, p CRPDParams) ([]float64, error) {
	if err := validateForRTA(ts); err != nil {
		return nil, err
	}
	gamma, err := crpdGamma(ts, m, p)
	if err != nil {
		return nil, err
	}
	return responseTimes(g, g.Obs(), ts, gamma, nil, nil)
}

func validateForRTA(ts task.Set) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	if len(ts) == 0 {
		return guard.Invalidf("sched: empty task set")
	}
	return nil
}

// FNPRAnalysis is the legacy coupling of the floating-NPR task model with
// the paper's delay bound, reconstructed over Options/Analyze.
type FNPRAnalysis struct {
	Tasks  task.Set
	Delay  []delay.Function
	Method DelayMethod
	Warm   []float64
}

func (a FNPRAnalysis) options() Options {
	return Options{
		Method: a.Method,
		Delay:  a.Delay,
		Warm:   a.Warm,
	}
}

func (a FNPRAnalysis) EffectiveWCETs() ([]float64, error) {
	return a.EffectiveWCETsCtx(nil)
}

func (a FNPRAnalysis) EffectiveWCETsCtx(g *guard.Ctx) ([]float64, error) {
	if len(a.Delay) != len(a.Tasks) {
		return nil, guard.Invalidf("sched: %d delay functions for %d tasks", len(a.Delay), len(a.Tasks))
	}
	cp, _, err := effectiveWCETs(g, g.Obs(), a.Tasks, a.options())
	return cp, err
}

func (a FNPRAnalysis) ResponseTimesFP() ([]float64, error) {
	return a.ResponseTimesFPCtx(nil)
}

func (a FNPRAnalysis) ResponseTimesFPCtx(g *guard.Ctx) ([]float64, error) {
	cp, err := a.EffectiveWCETsCtx(g)
	if err != nil {
		return nil, err
	}
	return fpResponseTimes(g, g.Obs(), a.Tasks, a.options(), cp)
}

func (a FNPRAnalysis) ResponseTimesFPLimited() (*LimitedResult, error) {
	return a.ResponseTimesFPLimitedCtx(nil)
}

func (a FNPRAnalysis) ResponseTimesFPLimitedCtx(g *guard.Ctx) (*LimitedResult, error) {
	return limitedAnalysis(g, g.Obs(), a.Tasks, a.options())
}

func (a FNPRAnalysis) SchedulableEDF() (bool, error) {
	return a.SchedulableEDFCtx(nil)
}

func (a FNPRAnalysis) SchedulableEDFCtx(g *guard.Ctx) (bool, error) {
	cp, err := a.EffectiveWCETsCtx(g)
	if err != nil {
		return false, err
	}
	return edfSchedulable(g, g.Obs(), a.Tasks, a.options(), cp)
}

func (a FNPRAnalysis) DelayMargin(maxScale, precision float64) (float64, error) {
	return DelayMargin(nil, a.Tasks, a.options(), maxScale, precision)
}
