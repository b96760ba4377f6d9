package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SLO grammar
//
// An SLO is a semicolon-separated list of rules, each `metric OP threshold`
// with OP one of `<=` or `>=`:
//
//	wait_p99_sec<=2.5;utilization_pct>=60;degraded_jobs<=0
//
// Metric names come from the run's metric-value map (fleet publishes its
// summary metrics there — see fleet.Result.SLO); thresholds are float64
// literals other than NaN, and a metric name may not contain an operator.
// Evaluation is strict: a rule naming a metric the run did not
// publish is an error, not a silent pass, so a typo cannot masquerade as a
// green watchdog.

// Op values for SLORule.
const (
	OpLE = "<=" // observed value must be at most the threshold
	OpGE = ">=" // observed value must be at least the threshold
)

// SLORule is one declarative objective: Metric OP Threshold.
type SLORule struct {
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
}

// SLO is an ordered rule list. The nil *SLO evaluates to no report.
type SLO struct {
	Rules []SLORule `json:"rules"`
}

// ParseSLO parses the `metric<=value;metric>=value` grammar. Empty segments
// (doubled or trailing semicolons) are ignored; an empty spec is an error.
func ParseSLO(spec string) (*SLO, error) {
	s := &SLO{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var op string
		switch {
		case strings.Contains(part, OpLE):
			op = OpLE
		case strings.Contains(part, OpGE):
			op = OpGE
		default:
			return nil, fmt.Errorf("obs: SLO rule %q: want metric<=value or metric>=value", part)
		}
		metric, raw, _ := strings.Cut(part, op)
		metric = strings.TrimSpace(metric)
		if metric == "" {
			return nil, fmt.Errorf("obs: SLO rule %q: empty metric name", part)
		}
		if strings.Contains(metric, OpLE) || strings.Contains(metric, OpGE) {
			// "a>=b<=1" would otherwise name the metric "a>=b".
			return nil, fmt.Errorf("obs: SLO rule %q: metric name %q contains an operator", part, metric)
		}
		threshold, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return nil, fmt.Errorf("obs: SLO rule %q: bad threshold: %w", part, err)
		}
		if math.IsNaN(threshold) {
			// Every comparison with NaN is false: the rule could
			// never pass.
			return nil, fmt.Errorf("obs: SLO rule %q: threshold is NaN", part)
		}
		s.Rules = append(s.Rules, SLORule{Metric: metric, Op: op, Threshold: threshold})
	}
	if len(s.Rules) == 0 {
		return nil, fmt.Errorf("obs: empty SLO spec %q", spec)
	}
	return s, nil
}

// String renders the SLO back into the ParseSLO grammar.
func (s *SLO) String() string {
	if s == nil {
		return ""
	}
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		parts[i] = fmt.Sprintf("%s%s%g", r.Metric, r.Op, r.Threshold)
	}
	return strings.Join(parts, ";")
}

// SLOResult is one evaluated rule: the rule, the observed value, and the
// verdict.
type SLOResult struct {
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	Value     float64 `json:"value"`
	Pass      bool    `json:"pass"`
}

// SLOReport is a full evaluation: one result per rule, in rule order, plus
// the conjunction.
type SLOReport struct {
	Results []SLOResult `json:"results"`
	Passed  bool        `json:"passed"`
}

// Eval checks every rule against the published metric values. Rule order is
// the report order, so the report is deterministic. An unknown metric or an
// unknown operator fails the evaluation itself (error), not the rule.
func (s *SLO) Eval(values map[string]float64) (*SLOReport, error) {
	if s == nil || len(s.Rules) == 0 {
		return nil, nil
	}
	rep := &SLOReport{Passed: true}
	for _, r := range s.Rules {
		v, ok := values[r.Metric]
		if !ok {
			return nil, fmt.Errorf("obs: SLO metric %q not published by this run", r.Metric)
		}
		var pass bool
		switch r.Op {
		case OpLE:
			pass = v <= r.Threshold
		case OpGE:
			pass = v >= r.Threshold
		default:
			return nil, fmt.Errorf("obs: SLO rule %s: unknown op %q", r.Metric, r.Op)
		}
		rep.Results = append(rep.Results, SLOResult{
			Metric: r.Metric, Op: r.Op, Threshold: r.Threshold, Value: v, Pass: pass,
		})
		if !pass {
			rep.Passed = false
		}
	}
	return rep, nil
}
