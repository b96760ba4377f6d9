package fault

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"mklite/internal/sim"
)

// ParsePlan parses the mkrun -faults spec syntax: semicolon-separated fault
// clauses, each `kind:key=value,key=value,...`. An empty spec returns a nil
// plan (no faults).
//
//	straggler:node=0,factor=2,extra=200us,start=0,steps=50
//	offload:prob=0.01,stall=5ms,retries=3
//	link:loss=0.001,timeout=2ms,bytes=8192
//	nodefail:prob=0.02,failfirst=1
//	storm:period=250ms,burst=30ms,cv=0.5,offload=4
//	retry:max=2,base=1s,cap=10s
//	degraded
//
// Durations use time.ParseDuration notation ("200us", "5ms"). Multiple
// straggler clauses accumulate; other kinds may appear once.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, argstr, _ := strings.Cut(clause, ":")
		kind = strings.TrimSpace(kind)
		args, err := parseArgs(argstr)
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		if err := applyClause(p, kind, args); err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		if err := args.unused(); err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan in ParsePlan's clause syntax, canonically:
// stragglers in plan order, then offload, link, nodefail, storm, retry and
// degraded clauses, each with every key spelled out, numbers in their
// shortest round-trip form and durations in time.Duration notation. For
// any plan ParsePlan returned, ParsePlan(p.String()) reproduces it; a plan
// that injects nothing and sets no retry policy renders as "", which
// parses to nil.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var clauses []string
	add := func(format string, args ...any) { clauses = append(clauses, fmt.Sprintf(format, args...)) }
	for _, s := range p.Stragglers {
		add("straggler:node=%d,factor=%s,extra=%s,start=%d,steps=%d",
			s.Node, fmtFloat(s.Factor), fmtDuration(s.Extra), s.StartStep, s.Steps)
	}
	if o := p.Offload; o != nil {
		add("offload:prob=%s,stall=%s,retries=%d", fmtFloat(o.StallProb), fmtDuration(o.Stall), o.MaxRetries)
	}
	if l := p.Link; l != nil {
		add("link:loss=%s,timeout=%s,bytes=%d", fmtFloat(l.LossProb), fmtDuration(l.Timeout), l.MessageBytes)
	}
	if n := p.NodeFail; n != nil {
		add("nodefail:prob=%s,failfirst=%d", fmtFloat(n.Prob), n.FailFirst)
	}
	if s := p.Storm; s != nil {
		add("storm:period=%s,burst=%s,cv=%s,offload=%s",
			fmtDuration(s.Period), fmtDuration(s.Burst), fmtFloat(s.CV), fmtFloat(s.OffloadFactor))
	}
	if r := p.Retry; r != (RetryPolicy{}) {
		add("retry:max=%d,base=%s,cap=%s", r.MaxRetries, fmtDuration(r.Base), fmtDuration(r.Max))
	}
	if p.AllowDegraded {
		clauses = append(clauses, "degraded")
	}
	return strings.Join(clauses, ";")
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fmtDuration(d sim.Duration) string { return time.Duration(d).String() }

// applyClause folds one parsed clause into the plan.
func applyClause(p *Plan, kind string, args *argSet) error {
	switch kind {
	case "straggler":
		s := Straggler{Factor: args.float("factor", 0)}
		s.Node = args.int("node", 0)
		s.Extra = args.duration("extra", 0)
		s.StartStep = args.int("start", 0)
		s.Steps = args.int("steps", 0)
		if args.err == nil && s.Factor == 0 && s.Extra == 0 {
			return fmt.Errorf("straggler needs factor or extra")
		}
		p.Stragglers = append(p.Stragglers, s)
	case "offload":
		if p.Offload != nil {
			return fmt.Errorf("duplicate offload clause")
		}
		p.Offload = &OffloadFault{
			StallProb:  args.float("prob", 0),
			Stall:      args.duration("stall", 5*sim.Millisecond),
			MaxRetries: args.int("retries", 0),
		}
	case "link":
		if p.Link != nil {
			return fmt.Errorf("duplicate link clause")
		}
		p.Link = &LinkFault{
			LossProb:     args.float("loss", 0),
			Timeout:      args.duration("timeout", 1*sim.Millisecond),
			MessageBytes: int64(args.int("bytes", 0)),
		}
	case "nodefail":
		if p.NodeFail != nil {
			return fmt.Errorf("duplicate nodefail clause")
		}
		p.NodeFail = &NodeFailure{
			Prob:      args.float("prob", 0),
			FailFirst: args.int("failfirst", 0),
		}
	case "storm":
		if p.Storm != nil {
			return fmt.Errorf("duplicate storm clause")
		}
		p.Storm = &DaemonStorm{
			Period:        args.duration("period", 250*sim.Millisecond),
			Burst:         args.duration("burst", 20*sim.Millisecond),
			CV:            args.float("cv", 0.5),
			OffloadFactor: args.float("offload", 1),
		}
	case "retry":
		p.Retry = RetryPolicy{
			MaxRetries: args.int("max", 0),
			Base:       args.duration("base", 0),
			Max:        args.duration("cap", 0),
		}
	case "degraded":
		p.AllowDegraded = true
	default:
		return fmt.Errorf("unknown fault kind %q", kind)
	}
	return args.err
}

// argSet is one clause's key=value pairs with typed, error-accumulating
// accessors; keys left unread are reported as unknown.
type argSet struct {
	vals map[string]string
	used map[string]bool
	err  error
}

func parseArgs(s string) (*argSet, error) {
	a := &argSet{vals: map[string]string{}, used: map[string]bool{}}
	s = strings.TrimSpace(s)
	if s == "" {
		return a, nil
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("argument %q is not key=value", kv)
		}
		a.vals[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return a, nil
}

// fail records the first accessor error.
func (a *argSet) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

func (a *argSet) lookup(key string) (string, bool) {
	v, ok := a.vals[key]
	if ok {
		a.used[key] = true
	}
	return v, ok
}

func (a *argSet) int(key string, def int) int {
	v, ok := a.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		a.fail(fmt.Errorf("bad integer %s=%q", key, v))
		return def
	}
	return n
}

func (a *argSet) float(key string, def float64) float64 {
	v, ok := a.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		a.fail(fmt.Errorf("bad number %s=%q", key, v))
		return def
	}
	return f
}

func (a *argSet) duration(key string, def sim.Duration) sim.Duration {
	v, ok := a.lookup(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		a.fail(fmt.Errorf("bad duration %s=%q", key, v))
		return def
	}
	return sim.Duration(d.Nanoseconds())
}

// unused reports the first (alphabetically) key the clause handler never
// consumed.
func (a *argSet) unused() error {
	for _, k := range slices.Sorted(maps.Keys(a.vals)) {
		if !a.used[k] {
			return fmt.Errorf("unknown argument %q", k)
		}
	}
	return nil
}
