// Package faults is a deterministic, seedable fault injector for the
// controller↔agent transport. It wraps the RPC client behind the Caller
// interface and fires faults — injected errors, delays, connection drops,
// and whole-agent crashes — according to an ordered rule schedule, so chaos
// runs are reproducible: the same seed and the same call sequence yield the
// same faults (randomness is consulted only for probabilistic rules, in
// call order, from a private seeded source).
//
// Schedules are built programmatically ([]Rule) or parsed from a compact
// spec (see Parse):
//
//	crash:agent=server-1,at=40;delay:op=Step,p=0.5,ms=100
//
// Every fired fault is counted in ef_faults_injected_total{kind} and traced
// as a fault-injected event, so a chaos run's injected schedule can be read
// back from the event log (DESIGN.md §9).
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// Caller is the transport surface the injector wraps: the subset of
// *rpc.Client the controller uses. *rpc.Client satisfies it.
type Caller interface {
	Call(serviceMethod string, args any, reply any) error
	Close() error
}

// Kind enumerates fault kinds.
type Kind int

const (
	// None matches no calls; the zero value is inert.
	None Kind = iota
	// Error fails the call with ErrInjected without reaching the agent.
	Error
	// Delay sleeps for Rule.Delay, then lets the call proceed.
	Delay
	// Drop closes the underlying connection and fails the call with
	// ErrDropped; the next call must redial.
	Drop
	// Crash marks the agent permanently dead: this call and every later
	// call (and redial) to that agent fails with CrashedError.
	Crash
	// Corrupt flips payload bytes in flight: request payloads (args
	// implementing PayloadTamperer) are tampered before the call reaches
	// the agent, reply payloads after it returns. The call itself
	// succeeds — integrity checking is the receiver's job, which is
	// exactly what the transfer plane's per-chunk CRCs exist to catch.
	Corrupt
)

// String returns the metric/event label for the kind.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Crash:
		return "crash"
	case Corrupt:
		return "corrupt"
	default:
		return "none"
	}
}

// PayloadTamperer is implemented by RPC args/replies that carry a byte
// payload a Corrupt fault can damage. TamperPayload flips payload bytes
// in place (on a private copy if the buffer may be shared) and reports
// whether there was anything to damage.
type PayloadTamperer interface {
	TamperPayload() bool
}

// ErrInjected is the error returned by an Error-kind fault.
var ErrInjected = errors.New("faults: injected RPC error")

// ErrDropped is the error returned by a Drop-kind fault.
var ErrDropped = errors.New("faults: connection dropped")

// CrashedError reports a call to an agent a Crash-kind fault has killed.
type CrashedError struct{ Agent string }

func (e *CrashedError) Error() string {
	return fmt.Sprintf("faults: agent %s crashed", e.Agent)
}

// Rule is one entry of a fault schedule. A rule fires when a call matches
// its Agent/Op filters and its At/After/P/Times counters allow it.
type Rule struct {
	// Kind is the fault to fire.
	Kind Kind
	// Agent filters by agent name; empty matches every agent.
	Agent string
	// Op filters by bare method name (e.g. "Step", without the "Agent."
	// service prefix); empty matches every method.
	Op string
	// At fires on exactly the Nth matching call (1-based). Zero disables.
	At int
	// After fires from the Nth matching call on (1-based). Zero disables.
	After int
	// P fires with probability P when in (0,1); 0 or 1 fire always.
	// Randomness is drawn from the injector's seeded source in call order,
	// so runs with the same seed are reproducible.
	P float64
	// Delay is the sleep duration for Delay-kind rules.
	Delay time.Duration
	// Times caps total firings; zero means unlimited.
	Times int
}

type ruleState struct {
	Rule
	matched int // calls that matched the filters so far
	fired   int // faults actually fired
}

// Injector evaluates a fault schedule against wrapped transports. Call and
// query methods are safe for concurrent use; the WithObs/WithSleep/OnCrash
// builders must run before the injector is shared. A nil *Injector injects
// nothing.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand      // guarded by mu
	rules   []*ruleState    // guarded by mu (counters mutate)
	crashed map[string]bool // guarded by mu
	onCrash func(agent string)
	o       *obs.Obs
	sleep   func(time.Duration)
}

// New creates an injector over the given schedule. The seed feeds the
// private randomness source used by probabilistic (P<1) rules.
func New(seed int64, rules []Rule) *Injector {
	states := make([]*ruleState, 0, len(rules))
	for _, r := range rules {
		states = append(states, &ruleState{Rule: r})
	}
	return &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		rules:   states,
		crashed: make(map[string]bool),
		sleep:   time.Sleep,
	}
}

// WithObs routes fault counters and events to o. Returns the injector.
func (in *Injector) WithObs(o *obs.Obs) *Injector {
	if in != nil {
		in.o = o
	}
	return in
}

// WithSleep replaces the delay-fault sleeper (tests inject a no-op so
// Delay rules don't slow the suite). Returns the injector.
func (in *Injector) WithSleep(sleep func(time.Duration)) *Injector {
	if in != nil && sleep != nil {
		in.sleep = sleep
	}
	return in
}

// OnCrash registers a hook invoked (outside the injector lock) the moment
// a Crash fault fires, with the crashed agent's name. Returns the injector.
func (in *Injector) OnCrash(fn func(agent string)) *Injector {
	if in != nil {
		in.onCrash = fn
	}
	return in
}

// Crashed reports whether a Crash fault has killed the agent.
func (in *Injector) Crashed(agent string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[agent]
}

// Wrap returns a Caller that evaluates the schedule before forwarding to c.
// A nil injector returns c unchanged.
func (in *Injector) Wrap(agent string, c Caller) Caller {
	if in == nil {
		return c
	}
	return &wrapped{in: in, agent: agent, inner: c}
}

// WrapDial returns a dial function that refuses crashed agents and wraps
// every successful connection. A nil injector returns dial unchanged.
func (in *Injector) WrapDial(dial func(name, addr string) (Caller, error)) func(name, addr string) (Caller, error) {
	if in == nil {
		return dial
	}
	return func(name, addr string) (Caller, error) {
		if in.Crashed(name) {
			return nil, &CrashedError{Agent: name}
		}
		c, err := dial(name, addr)
		if err != nil {
			return nil, err
		}
		return in.Wrap(name, c), nil
	}
}

type wrapped struct {
	in    *Injector
	agent string
	inner Caller
}

func (w *wrapped) Call(serviceMethod string, args any, reply any) error {
	op := serviceMethod
	if i := strings.LastIndexByte(op, '.'); i >= 0 {
		op = op[i+1:]
	}
	act, delay, crashErr := w.in.decide(w.agent, op)
	if crashErr != nil {
		return crashErr
	}
	switch act {
	case Error:
		return ErrInjected
	case Drop:
		if err := w.inner.Close(); err != nil {
			return errors.Join(ErrDropped, err)
		}
		return ErrDropped
	case Delay:
		w.in.sleep(delay)
	case Corrupt:
		// Damage the request payload before it reaches the agent; if the
		// request carries none, forward and damage the reply instead —
		// either way the receiver's CRC check is what must catch it.
		if t, ok := args.(PayloadTamperer); ok && t.TamperPayload() {
			break
		}
		if err := w.inner.Call(serviceMethod, args, reply); err != nil {
			return err
		}
		if t, ok := reply.(PayloadTamperer); ok {
			t.TamperPayload()
		}
		return nil
	}
	return w.inner.Call(serviceMethod, args, reply)
}

func (w *wrapped) Close() error { return w.inner.Close() }

// decide walks the schedule for one call and returns the action to take: a
// non-nil crashErr (possibly for an agent already dead), or a Kind (None,
// Error, Delay with duration, Drop). Crash marking and the onCrash hook
// happen here; the hook runs outside the lock.
func (in *Injector) decide(agent, op string) (act Kind, delay time.Duration, crashErr error) {
	var hook func(string)
	in.mu.Lock()
	if in.crashed[agent] {
		in.mu.Unlock()
		return None, 0, &CrashedError{Agent: agent}
	}
	for _, r := range in.rules {
		if r.Agent != "" && r.Agent != agent {
			continue
		}
		if r.Op != "" && r.Op != op {
			continue
		}
		r.matched++
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		if r.At > 0 && r.matched != r.At {
			continue
		}
		if r.After > 0 && r.matched < r.After {
			continue
		}
		if r.P > 0 && r.P < 1 && in.rng.Float64() >= r.P {
			continue
		}
		r.fired++
		act, delay = r.Kind, r.Delay
		if r.Kind == Crash {
			in.crashed[agent] = true
			hook = in.onCrash
			crashErr = &CrashedError{Agent: agent}
		}
		break
	}
	in.mu.Unlock()
	if act != None {
		in.o.EventNow(obs.KindFault, "",
			tracing.A("agent", agent), tracing.A("op", op), tracing.A("kind", act.String()))
	}
	if hook != nil {
		hook(agent)
	}
	return act, delay, crashErr
}

// Parse decodes the compact flag syntax into a schedule. Rules are
// ';'-separated; each is "kind:key=val,key=val…" with kind one of error,
// delay, drop, crash, corrupt and keys agent, op, at, after, p, times, ms
// (delay milliseconds). Examples:
//
//	crash:agent=server-1,at=40
//	delay:op=Step,p=0.5,ms=100
//	error:agent=server-0,op=Launch,at=1;drop:after=10,times=2
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, rest, _ := strings.Cut(part, ":")
		var r Rule
		switch kindStr {
		case "error":
			r.Kind = Error
		case "delay":
			r.Kind = Delay
		case "drop":
			r.Kind = Drop
		case "crash":
			r.Kind = Crash
		case "corrupt":
			r.Kind = Corrupt
		default:
			return nil, fmt.Errorf("faults: unknown kind %q in %q", kindStr, part)
		}
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("faults: malformed option %q in %q", kv, part)
				}
				switch key {
				case "agent":
					r.Agent = val
				case "op":
					r.Op = val
				case "at":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faults: at=%q must be a positive integer", val)
					}
					r.At = n
				case "after":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faults: after=%q must be a positive integer", val)
					}
					r.After = n
				case "times":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("faults: times=%q must be a positive integer", val)
					}
					r.Times = n
				case "p":
					p, err := strconv.ParseFloat(val, 64)
					if err != nil || p < 0 || p > 1 {
						return nil, fmt.Errorf("faults: p=%q must be in [0,1]", val)
					}
					r.P = p
				case "ms":
					n, err := strconv.Atoi(val)
					if err != nil || n < 0 {
						return nil, fmt.Errorf("faults: ms=%q must be a non-negative integer", val)
					}
					r.Delay = time.Duration(n) * time.Millisecond
				default:
					return nil, fmt.Errorf("faults: unknown option %q in %q", key, part)
				}
			}
		}
		if r.Kind == Delay && r.Delay <= 0 {
			return nil, fmt.Errorf("faults: delay rule %q needs ms=<n>", part)
		}
		rules = append(rules, r)
	}
	return rules, nil
}
