package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

func newMgr(t *testing.T, cfg Config) *Manager {
	t.Helper()
	return New(cfg)
}

func mustAcquire(t *testing.T, m *Manager, txn proto.TxnID, key string, mode Mode) {
	t.Helper()
	if err := m.Acquire(context.Background(), txn, key, mode); err != nil {
		t.Fatalf("Acquire(%v, %q, %v): %v", txn, key, mode, err)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := newMgr(t, Config{})
	mustAcquire(t, m, 1, "x", Shared)
	mustAcquire(t, m, 2, "x", Shared)
	mustAcquire(t, m, 3, "x", Shared)
	if got := len(m.Held(1)); got != 1 {
		t.Fatalf("Held(1) = %d entries", got)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := newMgr(t, Config{Timeout: 30 * time.Millisecond})
	mustAcquire(t, m, 1, "x", Exclusive)

	err := m.Acquire(context.Background(), 2, "x", Shared)
	if !errors.Is(err, proto.ErrLockTimeout) {
		t.Fatalf("conflicting acquire err = %v, want ErrLockTimeout", err)
	}
}

func TestReentrancy(t *testing.T) {
	m := newMgr(t, Config{})
	mustAcquire(t, m, 1, "x", Shared)
	mustAcquire(t, m, 1, "x", Shared)    // S then S
	mustAcquire(t, m, 1, "x", Exclusive) // upgrade, sole holder
	mustAcquire(t, m, 1, "x", Shared)    // X covers S
	mustAcquire(t, m, 1, "x", Exclusive) // X then X
	if m.Held(1)["x"] != Exclusive {
		t.Fatalf("Held = %v, want X", m.Held(1))
	}
}

func TestReleaseWakesWaiter(t *testing.T) {
	m := newMgr(t, Config{Timeout: 5 * time.Second})
	mustAcquire(t, m, 1, "x", Exclusive)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, "x", Exclusive) }()

	waitForQueue(t, m, "x", 1)
	m.ReleaseAll(1)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never granted after release")
	}
	if m.Held(2)["x"] != Exclusive {
		t.Fatal("waiter does not hold the lock")
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	m := newMgr(t, Config{Timeout: 5 * time.Second})
	mustAcquire(t, m, 1, "x", Exclusive)

	var mu sync.Mutex
	var order []proto.TxnID
	var wg sync.WaitGroup
	grab := func(txn proto.TxnID) {
		defer wg.Done()
		if err := m.Acquire(context.Background(), txn, "x", Exclusive); err != nil {
			t.Errorf("Acquire(%v): %v", txn, err)
			return
		}
		mu.Lock()
		order = append(order, txn)
		mu.Unlock()
		m.ReleaseAll(txn)
	}
	wg.Add(1)
	go grab(2)
	waitForQueue(t, m, "x", 1)
	wg.Add(1)
	go grab(3)
	waitForQueue(t, m, "x", 2)

	m.ReleaseAll(1)
	wg.Wait()

	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("grant order = %v, want [2 3]", order)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := newMgr(t, Config{Timeout: 5 * time.Second})
	mustAcquire(t, m, 1, "x", Shared)
	mustAcquire(t, m, 2, "x", Shared)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 1, "x", Exclusive) }()

	select {
	case err := <-done:
		t.Fatalf("upgrade granted while another reader holds: %v", err)
	case <-time.After(30 * time.Millisecond):
	}

	m.ReleaseAll(2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("upgrade err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("upgrade never granted")
	}
	if m.Held(1)["x"] != Exclusive {
		t.Fatal("upgrade did not take effect")
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	m := newMgr(t, Config{Timeout: 5 * time.Second})
	mustAcquire(t, m, 1, "x", Shared)

	// Txn 2 queues an X request behind the S holder.
	xDone := make(chan error, 1)
	go func() { xDone <- m.Acquire(context.Background(), 2, "x", Exclusive) }()
	waitForQueue(t, m, "x", 1)

	// Txn 1 upgrades: must be granted before txn 2 despite queueing later.
	upDone := make(chan error, 1)
	go func() { upDone <- m.Acquire(context.Background(), 1, "x", Exclusive) }()

	select {
	case err := <-upDone:
		if err != nil {
			t.Fatalf("upgrade err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("upgrade starved behind queued X")
	}
	select {
	case err := <-xDone:
		t.Fatalf("queued X granted too early: %v", err)
	default:
	}

	m.ReleaseAll(1)
	if err := <-xDone; err != nil {
		t.Fatalf("queued X err = %v", err)
	}
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	m := newMgr(t, Config{Timeout: 50 * time.Millisecond})
	mustAcquire(t, m, 1, "x", Exclusive)
	mustAcquire(t, m, 2, "y", Exclusive)

	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(context.Background(), 1, "y", Exclusive) }()
	go func() { errs <- m.Acquire(context.Background(), 2, "x", Exclusive) }()

	timedOut := 0
	for range 2 {
		select {
		case err := <-errs:
			if errors.Is(err, proto.ErrLockTimeout) {
				timedOut++
			} else if err != nil {
				t.Fatalf("unexpected error %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if timedOut == 0 {
		t.Fatal("expected at least one timeout in a deadlock")
	}
}

func TestWoundWaitKillsYounger(t *testing.T) {
	m := newMgr(t, Config{Policy: PolicyWoundWait, Timeout: 5 * time.Second})
	// Younger transaction (higher ID) holds the lock.
	mustAcquire(t, m, 10, "x", Exclusive)

	// Older transaction wants it: wounds txn 10.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 5, "x", Exclusive) }()

	waitFor(t, "the younger holder is wounded", func() bool { return m.Wounded(10) })

	// Victim notices (its manager checks Wounded) and aborts.
	if err := m.Acquire(context.Background(), 10, "y", Shared); !errors.Is(err, proto.ErrWounded) {
		t.Fatalf("wounded txn Acquire err = %v, want ErrWounded", err)
	}
	m.ReleaseAll(10)

	if err := <-done; err != nil {
		t.Fatalf("older txn err = %v", err)
	}
}

func TestWoundWaitYoungerWaitsForOlder(t *testing.T) {
	m := newMgr(t, Config{Policy: PolicyWoundWait, Timeout: 5 * time.Second})
	mustAcquire(t, m, 5, "x", Exclusive) // older holds

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 10, "x", Exclusive) }()

	waitForQueue(t, m, "x", 1) // a wound is dealt before the request queues
	if m.Wounded(5) {
		t.Fatal("older holder must not be wounded by a younger waiter")
	}
	m.ReleaseAll(5)
	if err := <-done; err != nil {
		t.Fatalf("younger waiter err = %v", err)
	}
}

func TestWoundWaitUnblocksWaitingVictim(t *testing.T) {
	m := newMgr(t, Config{Policy: PolicyWoundWait, Timeout: 5 * time.Second})
	mustAcquire(t, m, 10, "x", Exclusive) // younger holds x
	mustAcquire(t, m, 20, "y", Exclusive) // even younger holds y

	// Txn 10 waits for y (held by 20): classic wait chain.
	waitErr := make(chan error, 1)
	go func() { waitErr <- m.Acquire(context.Background(), 10, "y", Exclusive) }()
	waitForQueue(t, m, "y", 1)

	// Older txn 5 requests x: wounds 10, which is blocked on y. The wound
	// must fail 10's pending request immediately.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 5, "x", Exclusive) }()

	select {
	case err := <-waitErr:
		if !errors.Is(err, proto.ErrWounded) {
			t.Fatalf("victim wait err = %v, want ErrWounded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wounded waiter never unblocked")
	}

	m.ReleaseAll(10) // victim aborts
	if err := <-done; err != nil {
		t.Fatalf("older txn err = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	m := newMgr(t, Config{Timeout: time.Hour})
	mustAcquire(t, m, 1, "x", Exclusive)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 2, "x", Exclusive) }()
	waitForQueue(t, m, "x", 1)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire ignored cancellation")
	}
}

func TestTimeoutRemovalPromotesQueue(t *testing.T) {
	// On a virtual clock the S queues 10 ms after the X, so the X's timeout
	// falls first however the goroutines are scheduled.
	vc := clock.NewVirtual(time.Unix(0, 0))
	m := newMgr(t, Config{Timeout: 40 * time.Millisecond, Clock: vc})
	mustAcquire(t, m, 1, "x", Shared)

	// Txn 2 queues X (will time out: S holder never releases during wait).
	xErr := make(chan error, 1)
	go func() { xErr <- m.Acquire(context.Background(), 2, "x", Exclusive) }()
	waitFor(t, "the X waits on the clock", func() bool { return vc.PendingTimers() == 1 })
	vc.Advance(10 * time.Millisecond)

	// Txn 3 queues S behind the X. When the X times out, the S must be
	// promoted even though nothing was released.
	sErr := make(chan error, 1)
	go func() { sErr <- m.Acquire(context.Background(), 3, "x", Shared) }()
	waitFor(t, "the S waits on the clock", func() bool { return vc.PendingTimers() == 2 })
	vc.Advance(30 * time.Millisecond)

	if err := <-xErr; !errors.Is(err, proto.ErrLockTimeout) {
		t.Fatalf("X err = %v, want timeout", err)
	}
	select {
	case err := <-sErr:
		if err != nil {
			t.Fatalf("queued S err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued S never promoted after the X timed out")
	}
}

func TestCrashResetFailsWaiters(t *testing.T) {
	m := newMgr(t, Config{Timeout: time.Hour})
	mustAcquire(t, m, 1, "x", Exclusive)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, "x", Exclusive) }()
	waitForQueue(t, m, "x", 1)

	m.CrashReset()
	select {
	case err := <-done:
		if !errors.Is(err, proto.ErrTxnAborted) {
			t.Fatalf("err = %v, want ErrTxnAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CrashReset did not fail the waiter")
	}
	if len(m.Held(1)) != 0 {
		t.Fatal("CrashReset must drop all holdings")
	}
}

func TestReleaseAllFailsOwnQueuedRequest(t *testing.T) {
	// ReleaseAll of a transaction whose lock request is still queued must
	// resolve that request with ErrReleased, not drop it silently: a
	// silently-removed waiter whose timeout races the removal concludes in
	// cancelWait that the request was resolved concurrently and blocks
	// forever on a signal nobody sends (the leak: a server RPC handler
	// parked for the life of the process). Observed when a coordinator's
	// abort broadcast (→ ReleaseAll at the participant) races the
	// participant handler's own call-timeout cancellation.
	m := newMgr(t, Config{Timeout: time.Hour})
	mustAcquire(t, m, 1, "x", Exclusive)

	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, "x", Exclusive) }()
	waitForQueue(t, m, "x", 1)

	m.ReleaseAll(2)
	select {
	case err := <-done:
		if !errors.Is(err, ErrReleased) {
			t.Fatalf("err = %v, want ErrReleased", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReleaseAll left its own queued request waiting")
	}
	if len(m.Held(2)) != 0 {
		t.Fatal("released transaction must hold nothing")
	}
	mustAcquire(t, m, 1, "x", Exclusive) // still re-entrant, queue clean
}

func TestReleaseAllThenCancelDoesNotHang(t *testing.T) {
	// The cancellation ordering of the same race: the waiter's context is
	// cancelled after ReleaseAll removed its request. cancelWait finds the
	// request gone from the queue and must receive the ErrReleased
	// resolution instead of hanging.
	m := newMgr(t, Config{Timeout: time.Hour})
	mustAcquire(t, m, 1, "x", Exclusive)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 2, "x", Exclusive) }()
	waitForQueue(t, m, "x", 1)

	m.ReleaseAll(2)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("released waiter acquired the lock")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after ReleaseAll+cancel")
	}
}

// TestStats: the uncontended grant emits nothing; the request that queued
// and timed out returns ErrLockTimeout and is observed as one wait.
func TestStats(t *testing.T) {
	hub := obs.NewHub(obs.Options{})
	m := newMgr(t, Config{Site: 2, Obs: hub, Timeout: 20 * time.Millisecond})
	mustAcquire(t, m, 1, "x", Exclusive)
	if err := m.Acquire(context.Background(), 2, "x", Exclusive); !errors.Is(err, proto.ErrLockTimeout) {
		t.Fatalf("conflicting acquire = %v, want ErrLockTimeout", err)
	}
	if waits := hub.Value(2, "lock", "wait_us"); waits != 1 {
		t.Fatalf("%d waits observed, want 1", waits)
	}
}

func TestConcurrentStress(t *testing.T) {
	m := newMgr(t, Config{Timeout: 500 * time.Millisecond})
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for i := 1; i <= 24; i++ {
		wg.Add(1)
		go func(txn proto.TxnID) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				k1 := keys[(int(txn)+round)%len(keys)]
				k2 := keys[(int(txn)+round+1)%len(keys)]
				if err := m.Acquire(context.Background(), txn, k1, Shared); err != nil {
					m.ReleaseAll(txn)
					continue
				}
				if err := m.Acquire(context.Background(), txn, k2, Exclusive); err != nil {
					m.ReleaseAll(txn)
					continue
				}
				m.ReleaseAll(txn)
			}
		}(proto.TxnID(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged (likely lost wakeup)")
	}
}

func TestOutstandingLocksEnumeratesAndDrains(t *testing.T) {
	m := newMgr(t, Config{})
	mustAcquire(t, m, 2, "b", Exclusive)
	mustAcquire(t, m, 1, "a", Shared)
	mustAcquire(t, m, 3, "a", Shared)

	got := m.OutstandingLocks()
	want := []HeldLock{
		{Key: "a", Txn: 1, Mode: Shared},
		{Key: "a", Txn: 3, Mode: Shared},
		{Key: "b", Txn: 2, Mode: Exclusive},
	}
	if len(got) != len(want) {
		t.Fatalf("OutstandingLocks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutstandingLocks[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	m.ReleaseAll(1)
	m.ReleaseAll(2)
	m.ReleaseAll(3)
	if left := m.OutstandingLocks(); len(left) != 0 {
		t.Fatalf("locks leaked after ReleaseAll: %v", left)
	}
}

// TestShardedCrossShardFootprint runs a transaction whose lock set spans
// many shards and checks that Held, OutstandingLocks, and ReleaseAll all see
// the whole footprint, not just one shard's slice.
func TestShardedCrossShardFootprint(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		m := newMgr(t, Config{Shards: shards})
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for _, k := range keys {
			mustAcquire(t, m, 1, k, Exclusive)
		}
		if got := len(m.Held(1)); got != len(keys) {
			t.Fatalf("shards=%d: Held = %d keys, want %d", shards, got, len(keys))
		}
		if got := len(m.OutstandingLocks()); got != len(keys) {
			t.Fatalf("shards=%d: OutstandingLocks = %d, want %d", shards, got, len(keys))
		}
		m.ReleaseAll(1)
		if got := m.OutstandingLocks(); len(got) != 0 {
			t.Fatalf("shards=%d: locks leaked after ReleaseAll: %v", shards, got)
		}
	}
}

// TestShardedWoundCrossesShards pins the cross-shard wound path: the victim
// holds the contested key in one shard while WAITING on a key that (with
// enough shards) hashes elsewhere — the wound must still fail the victim's
// queued request promptly, not leave it to ride out the timeout.
func TestShardedWoundCrossesShards(t *testing.T) {
	m := newMgr(t, Config{Policy: PolicyWoundWait, Shards: 64, Timeout: 5 * time.Second})

	mustAcquire(t, m, 2, "contested", Exclusive) // younger txn holds
	mustAcquire(t, m, 3, "elsewhere", Exclusive) // blocks the victim's other request

	victimBlocked := make(chan error, 1)
	go func() {
		victimBlocked <- m.Acquire(context.Background(), 2, "elsewhere", Exclusive)
	}()
	waitForQueue(t, m, "elsewhere", 1)

	// The older transaction wounds txn 2 by waiting on "contested"; txn 2's
	// queued request on "elsewhere" (a different shard) must fail fast.
	done := make(chan error, 1)
	go func() {
		done <- m.Acquire(context.Background(), 1, "contested", Exclusive)
	}()
	select {
	case err := <-victimBlocked:
		if !errors.Is(err, proto.ErrWounded) {
			t.Fatalf("victim's cross-shard wait = %v, want ErrWounded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wound did not reach the victim's wait in another shard")
	}
	if !m.Wounded(2) {
		t.Fatal("txn 2 not marked wounded")
	}
	if err := m.Acquire(context.Background(), 2, "new", Shared); !errors.Is(err, proto.ErrWounded) {
		t.Fatalf("wounded txn's fresh acquire = %v, want ErrWounded", err)
	}

	m.ReleaseAll(2) // the wounded victim aborts
	if err := <-done; err != nil {
		t.Fatalf("older txn never got the contested lock: %v", err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
	if m.Wounded(2) {
		t.Fatal("wound flag leaked past ReleaseAll")
	}
}

// waitFor yields until cond holds, failing the test after 5 s: the tests
// wait on the state they need, never on a guess at how long reaching it
// takes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// waitForQueue waits until key has n queued waiters. A request is queued,
// and any wound it deals is dealt, under its shard's lock before its caller
// blocks.
func waitForQueue(t *testing.T, m *Manager, key string, n int) {
	t.Helper()
	s := m.shardFor(key)
	waitFor(t, fmt.Sprintf("key %q has %d waiters", key, n), func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		ls := s.locks[key]
		return ls != nil && len(ls.queue) >= n
	})
}

// TestShardedContentionSmoke hammers the sharded table from many goroutines
// with a skewed key distribution (most of the load on a few hot keys) under
// both policies — the -race CI job turns this into a memory-safety check of
// the shard/wound-lock interplay, and the invariant checked here is that
// every transaction either completes all its acquisitions or aborts, and the
// table drains to empty.
func TestShardedContentionSmoke(t *testing.T) {
	keys := []string{
		"hot-0", "hot-1", // ~2 hot keys take most of the traffic
		"cold-0", "cold-1", "cold-2", "cold-3", "cold-4", "cold-5", "cold-6", "cold-7",
	}
	for _, policy := range []Policy{PolicyTimeout, PolicyWoundWait} {
		m := newMgr(t, Config{Policy: policy, Shards: 8, Timeout: 200 * time.Millisecond})
		const goroutines = 16
		const txnsEach = 30
		var wg sync.WaitGroup
		var completed atomic.Int64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < txnsEach; i++ {
					txn := proto.TxnID(1 + g*txnsEach + i)
					// Zipf-ish skew: 3 of 4 accesses hit a hot key.
					for op := 0; op < 3; op++ {
						var key string
						if (g+i+op)%4 != 0 {
							key = keys[(g+op)%2]
						} else {
							key = keys[2+(g+i+op)%8]
						}
						mode := Shared
						if op == 2 {
							mode = Exclusive
						}
						if err := m.Acquire(context.Background(), txn, key, mode); err != nil {
							break // wounded or timed out: abort
						}
						if op == 2 {
							completed.Add(1)
						}
					}
					m.ReleaseAll(txn)
				}
			}(g)
		}
		wg.Wait()
		if got := m.OutstandingLocks(); len(got) != 0 {
			t.Fatalf("policy %v: locks leaked after drain: %v", policy, got)
		}
		if completed.Load() == 0 {
			t.Fatalf("policy %v: no transaction ever took all its locks", policy)
		}
	}
}
