package stats

import "math"

// Threshold Random Walk (TRW) sequential hypothesis testing, after
// Jung, Paxson, Berger & Balakrishnan, "Fast Portscan Detection Using
// Sequential Hypothesis Testing" (IEEE S&P 2004). Each connection attempt
// from a remote host is an indicator variable phi_i (1 = attempt succeeded,
// 0 = failed); benign hosts succeed with probability theta0, scanners with
// the much lower theta1. The likelihood ratio walks until it crosses an
// acceptance threshold.

// TRWVerdict is the state of a sequential test.
type TRWVerdict uint8

// Verdicts.
const (
	TRWPending TRWVerdict = iota // more observations needed
	TRWBenign                    // host accepted as benign
	TRWScanner                   // host flagged as scanner
)

// String names the verdict.
func (v TRWVerdict) String() string {
	switch v {
	case TRWBenign:
		return "benign"
	case TRWScanner:
		return "scanner"
	default:
		return "pending"
	}
}

// TRWConfig parameterises the test. The defaults mirror the paper's
// recommended operating point.
type TRWConfig struct {
	Theta0 float64 // P(success | benign), e.g. 0.8
	Theta1 float64 // P(success | scanner), e.g. 0.2
	Alpha  float64 // tolerated false-positive rate, e.g. 0.01
	Beta   float64 // tolerated false-negative rate, e.g. 0.01
}

// DefaultTRWConfig returns the operating point from Jung et al.
func DefaultTRWConfig() TRWConfig {
	return TRWConfig{Theta0: 0.8, Theta1: 0.2, Alpha: 0.01, Beta: 0.99 / 100}
}

func (c TRWConfig) validate() {
	if !(c.Theta1 < c.Theta0) || c.Theta0 <= 0 || c.Theta0 >= 1 || c.Theta1 <= 0 || c.Theta1 >= 1 {
		panic("stats: TRW requires 0 < theta1 < theta0 < 1")
	}
	if c.Alpha <= 0 || c.Alpha >= 1 || c.Beta <= 0 || c.Beta >= 1 {
		panic("stats: TRW alpha/beta must be in (0,1)")
	}
}

// TRWTest is the test's constants: its thresholds and the walk's steps,
// derived once from a TRWConfig and shared by every host it judges.
type TRWTest struct {
	upper, lower float64 // log thresholds
	succUp       float64 // log-likelihood increment on success
	failUp       float64 // log-likelihood increment on failure
}

// NewTRWTest derives the test's constants from the configuration.
func NewTRWTest(cfg TRWConfig) TRWTest {
	cfg.validate()
	return TRWTest{
		upper:  math.Log((1 - cfg.Beta) / cfg.Alpha),
		lower:  math.Log(cfg.Beta / (1 - cfg.Alpha)),
		succUp: math.Log(cfg.Theta1 / cfg.Theta0),
		failUp: math.Log((1 - cfg.Theta1) / (1 - cfg.Theta0)),
	}
}

// TRWWalk is one remote host's position in a test: 16 bytes, so a caller
// can keep one per host by value. The zero value is a walk that has seen
// nothing.
type TRWWalk struct {
	logLambda    float64 // running log likelihood ratio
	observations uint32  // saturates at 2^32-1
	verdict      TRWVerdict
}

// Observe folds one connection-attempt outcome into w and returns its
// verdict. Once a terminal verdict is reached, further observations are
// ignored.
func (t *TRWTest) Observe(w *TRWWalk, success bool) TRWVerdict {
	if w.verdict != TRWPending {
		return w.verdict
	}
	if w.observations < math.MaxUint32 {
		w.observations++
	}
	if success {
		w.logLambda += t.succUp
	} else {
		w.logLambda += t.failUp
	}
	switch {
	case w.logLambda >= t.upper:
		w.verdict = TRWScanner
	case w.logLambda <= t.lower:
		w.verdict = TRWBenign
	}
	return w.verdict
}

// Verdict returns the walk's current verdict.
func (w *TRWWalk) Verdict() TRWVerdict { return w.verdict }

// Observations returns how many outcomes have been folded in.
func (w *TRWWalk) Observations() int { return int(w.observations) }
