// Package resilience is the shared client retry/backoff layer of the
// campaign engine. The source paper traces many partition-induced
// failures to ad-hoc client timeout and retry handling — every client
// rolling its own sweep loop, its own sleep constants, and its own
// notion of which errors are worth retrying. This package centralizes
// that policy: exponential backoff with decorrelated jitter, a total
// deadline budget, explicit Retryable/Fatal/Ambiguous error
// classification, and deterministic idempotency keys so checkers can
// confirm that a retried operation never double-applies.
//
// Everything runs on a clock.Clock and a caller-seeded *rand.Rand, so
// retry timing is part of the round's deterministic virtual-time
// execution: identical seeds replay identical backoff sequences.
package resilience

import (
	"fmt"
	"math/rand"
	"time"

	"neat/internal/clock"
)

// Class classifies one failed attempt.
type Class uint8

const (
	// Retryable: the attempt definitively did not take effect (a
	// refusal, a routing miss); trying again is safe for any operation.
	Retryable Class = iota
	// Fatal: retrying cannot help (a semantic rejection, a permanent
	// error); the caller should surface the error immediately.
	Fatal
	// Ambiguous: the attempt may have taken effect with only the reply
	// lost — the paper's silent-success window. Retrying is only safe
	// for idempotent operations; Policy.RetryAmbiguous opts in.
	Ambiguous
)

// String renders the class for logs.
func (c Class) String() string {
	switch c {
	case Retryable:
		return "retryable"
	case Fatal:
		return "fatal"
	case Ambiguous:
		return "ambiguous"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classifier maps one attempt's error to a Class. A nil Classifier
// treats every error as Retryable.
type Classifier func(error) Class

// Policy bounds one retried operation.
type Policy struct {
	// Base is the first backoff delay (default 2ms).
	Base time.Duration
	// Cap bounds any single backoff delay (default 16*Base).
	Cap time.Duration
	// MaxAttempts bounds how many times the operation runs; 0 means
	// attempts are bounded only by Budget (and if both are zero, a
	// single attempt).
	MaxAttempts int
	// Budget is the total time (on the operation's clock) the retried
	// operation may consume, measured from the first attempt's start; a
	// backoff that would overrun it is not taken. 0 means unbounded.
	Budget time.Duration
	// RetryAmbiguous also retries attempts classified Ambiguous. Safe
	// only for idempotent operations — rereads, or writes carrying an
	// idempotency key (or a value that is its own key).
	RetryAmbiguous bool
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 2 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 16 * p.Base
	}
	if p.MaxAttempts <= 0 && p.Budget <= 0 {
		p.MaxAttempts = 1
	}
	return p
}

// Backoff produces the policy's delay sequence: decorrelated jitter
// (the AWS variant) — each delay is drawn uniformly from
// [Base, prev*3], capped at Cap. Compared to plain exponential
// backoff this desynchronizes retry storms from many clients while
// still growing the expected delay geometrically.
type Backoff struct {
	pol  Policy
	rng  *rand.Rand
	prev time.Duration
}

// NewBackoff starts a delay sequence. rng must not be nil; the caller
// seeds it, which is what makes retry timing deterministic per round.
func NewBackoff(pol Policy, rng *rand.Rand) *Backoff {
	return &Backoff{pol: pol.withDefaults(), rng: rng}
}

// Next returns the next backoff delay.
func (b *Backoff) Next() time.Duration {
	if b.prev <= 0 {
		b.prev = b.pol.Base
		return b.prev
	}
	hi := 3 * b.prev
	if hi > b.pol.Cap {
		hi = b.pol.Cap
	}
	d := b.pol.Base
	if span := int64(hi - b.pol.Base); span > 0 {
		d += time.Duration(b.rng.Int63n(span + 1))
	}
	b.prev = d
	return d
}

// Result is what one retried operation came to.
type Result struct {
	// Attempts is how many times the operation ran (>= 1).
	Attempts int
	// Err is the final attempt's error (nil on success).
	Err error
	// Class is the final attempt's classification (meaningful only when
	// Err != nil).
	Class Class
}

// Do runs fn under the policy: attempts are classified, retryable
// failures back off with decorrelated jitter on clk, and the loop
// stops on success, a Fatal (or non-retried Ambiguous) class, attempt
// exhaustion, or a backoff that would overrun the budget. fn receives
// the zero-based attempt number, so callers can stamp idempotency
// keys or record per-attempt operations. Backoffs are waits of clk's
// root scope; accounted goroutines use DoIn.
func Do(clk clock.Clock, rng *rand.Rand, pol Policy, classify Classifier, fn func(attempt int) error) Result {
	return do(clk, clk.Sleep, rng, pol, classify, fn)
}

// DoIn is Do run by the goroutine that sc stands for: backoffs are
// waits of sc on its clock.
func DoIn(sc *clock.Scope, rng *rand.Rand, pol Policy, classify Classifier, fn func(attempt int) error) Result {
	return do(sc.Clock(), sc.Sleep, rng, pol, classify, fn)
}

func do(clk clock.Clock, sleep func(time.Duration), rng *rand.Rand, pol Policy, classify Classifier, fn func(attempt int) error) Result {
	pol = pol.withDefaults()
	bo := NewBackoff(pol, rng)
	start := clk.Now()
	res := Result{}
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		res.Err = fn(attempt)
		if res.Err == nil {
			return res
		}
		res.Class = Retryable
		if classify != nil {
			res.Class = classify(res.Err)
		}
		if res.Class == Fatal || (res.Class == Ambiguous && !pol.RetryAmbiguous) {
			return res
		}
		if pol.MaxAttempts > 0 && attempt+1 >= pol.MaxAttempts {
			return res
		}
		d := bo.Next()
		if pol.Budget > 0 && clk.Now().Sub(start)+d >= pol.Budget {
			return res
		}
		sleep(d)
	}
}

// KeySource mints deterministic idempotency keys for one client: a
// stable "client-seq" string per logical operation, reused verbatim
// across that operation's retries. Servers (or checkers) that see the
// same key twice know they are looking at a retry, not a new
// operation — which is what lets a history checker prove a retried
// write never double-applied.
type KeySource struct {
	client string
	seq    int
}

// NewKeySource starts a key sequence for the named client.
func NewKeySource(client string) *KeySource { return &KeySource{client: client} }

// Next mints the next logical operation's idempotency key.
func (k *KeySource) Next() string {
	k.seq++
	return fmt.Sprintf("%s-%d", k.client, k.seq)
}
