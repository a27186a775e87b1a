// Package retry implements capped exponential backoff with full jitter
// for transient network faults: dropped connections, flapping servers,
// mid-stream resets.
//
// The policy follows the AWS "full jitter" scheme: the nth retry sleeps
// a uniformly random duration in [0, min(MaxDelay, InitialDelay·2ⁿ)],
// which decorrelates retry storms from many clients hitting the same
// recovering server. Sleeps are context-aware, so a cancelled operation
// never waits out its backoff.
//
// Policy.MaxAttempts bounds retry amplification: a hard-down server
// costs each operation at most that many attempts. One layer up, the
// cluster router refuses the requests the transport may not replay to
// a shard with three transport failures in a row (cluster.ErrShardDown).
//
// Errors wrapped with Permanent are never retried: they mark
// application-level failures (a remote error response, a non-idempotent
// call whose connection died) as distinct from transport faults.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Defaults applied by Policy.withDefaults for zero fields.
const (
	DefaultInitialDelay = 10 * time.Millisecond
	DefaultMaxDelay     = 500 * time.Millisecond
	DefaultMaxAttempts  = 4
)

// Policy configures one retry loop. The zero value is usable: it
// retries up to DefaultMaxAttempts total attempts with full-jitter
// backoff between DefaultInitialDelay and DefaultMaxDelay.
type Policy struct {
	// InitialDelay is the backoff ceiling before the first retry; each
	// further retry doubles the ceiling up to MaxDelay.
	InitialDelay time.Duration
	// MaxDelay caps the backoff ceiling.
	MaxDelay time.Duration
	// MaxAttempts is the total number of attempts including the first.
	// Zero means DefaultMaxAttempts; 1 disables retries; negative is
	// treated as 1.
	MaxAttempts int
	// Seed, when non-zero, makes the jitter sequence deterministic
	// (chaos tests pin it so failures replay exactly).
	Seed int64
	// OnRetry, when set, is called before each backoff sleep with the
	// 1-based number of the attempt that just failed, its error, and
	// the chosen delay. Callers use it to count retries into stats.
	OnRetry func(attempt int, err error, delay time.Duration)
}

func (p Policy) withDefaults() Policy {
	if p.InitialDelay <= 0 {
		p.InitialDelay = DefaultInitialDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	return p
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying and returns the original
// error. A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or an error it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Do runs op under the policy: it retries transient failures with
// full-jitter backoff until op succeeds, returns a Permanent error, the
// context is cancelled, or the attempt cap is reached. The returned
// error is op's last error (unwrapped from Permanent).
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = rand.New(rand.NewSource(p.Seed))
	}

	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		lastErr = err
		if attempt >= p.MaxAttempts {
			return lastErr
		}
		delay := jitter(rng, backoffCeiling(p, attempt))
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, delay)
		}
		if !sleep(ctx, delay) {
			return lastErr
		}
	}
}

// backoffCeiling returns min(MaxDelay, InitialDelay·2^(attempt-1)).
func backoffCeiling(p Policy, attempt int) time.Duration {
	d := p.InitialDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// jitter draws uniformly from [0, ceiling] ("full jitter").
func jitter(rng *rand.Rand, ceiling time.Duration) time.Duration {
	if ceiling <= 0 {
		return 0
	}
	if rng != nil {
		return time.Duration(rng.Int63n(int64(ceiling) + 1))
	}
	return time.Duration(rand.Int63n(int64(ceiling) + 1))
}

// sleep waits d or until ctx is done, reporting whether the full delay
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
