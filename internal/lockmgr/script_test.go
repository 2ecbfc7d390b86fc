package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"siterecovery/internal/proto"
)

// model is the lock table written the obvious way — maps, no shards, no
// recycling, nothing concurrent — for TestScriptAgainstModel to hold the
// real one against. Each operation returns the queued requests it resolved:
// transaction → nil (granted) or the error its Acquire must return.
type model struct {
	policy  Policy
	holders map[string]map[proto.TxnID]Mode
	queue   map[string][]request // txn, mode, upgrade; ready unused
	wounded map[proto.TxnID]bool
	// listed is what ReleaseAll visits: every key the transaction was granted
	// or queued on since its last ReleaseAll, whatever became of it since.
	// (Visiting a key promotes its queue, which shows when a wound's sweep
	// has left a grantable request at the head.)
	listed map[proto.TxnID]map[string]bool
	stats  Stats
}

type resolved map[proto.TxnID]error

func (m *model) compatible(key string, mode Mode) bool {
	for _, held := range m.holders[key] {
		if held == Exclusive || mode == Exclusive {
			return false
		}
	}
	return true
}

// acquire reports whether the call returns at once (and with what), or
// queues.
func (m *model) acquire(txn proto.TxnID, key string, mode Mode) (queued bool, err error, out resolved) {
	if m.wounded[txn] {
		return false, proto.ErrWounded, nil
	}
	held := m.holders[key][txn]
	if held >= mode {
		m.stats.Acquired++
		return false, nil, nil
	}
	upgrade := held == Shared
	if !upgrade {
		if m.listed[txn] == nil {
			m.listed[txn] = map[string]bool{}
		}
		m.listed[txn][key] = true
	}
	if upgrade && len(m.holders[key]) == 1 || !upgrade && len(m.queue[key]) == 0 && m.compatible(key, mode) {
		m.holders[key][txn] = mode
		m.stats.Acquired++
		return false, nil, nil
	}
	req := request{txn: txn, mode: mode, upgrade: upgrade}
	if upgrade {
		m.queue[key] = append([]request{req}, m.queue[key]...)
	} else {
		m.queue[key] = append(m.queue[key], req)
	}
	out = resolved{}
	if m.policy == PolicyWoundWait {
		for h := range m.holders[key] {
			if h > txn && !m.wounded[h] {
				m.wounded[h] = true
				m.stats.Wounds++
				for k := range m.queue { // the sweep: the victim's waits fail everywhere
					m.dequeue(k, h, proto.ErrWounded, out)
				}
			}
		}
	}
	return true, nil, out
}

// dequeue removes txn's queued requests on key, resolving them with err.
func (m *model) dequeue(key string, txn proto.TxnID, err error, out resolved) {
	kept := m.queue[key][:0]
	for _, r := range m.queue[key] {
		if r.txn == txn {
			out[txn] = err
		} else {
			kept = append(kept, r)
		}
	}
	m.queue[key] = kept
}

func (m *model) promote(key string, out resolved) {
	for len(m.queue[key]) > 0 {
		r := m.queue[key][0]
		if r.upgrade && len(m.holders[key]) != 1 || !r.upgrade && !m.compatible(key, r.mode) {
			return
		}
		m.queue[key] = m.queue[key][1:]
		m.holders[key][r.txn] = r.mode
		m.stats.Acquired++
		m.stats.Waited++
		out[r.txn] = nil
		if r.mode == Exclusive {
			return
		}
	}
}

func (m *model) releaseOne(txn proto.TxnID, key string) resolved {
	out := resolved{}
	delete(m.holders[key], txn)
	m.promote(key, out)
	return out
}

func (m *model) releaseAll(txn proto.TxnID) resolved {
	out := resolved{}
	for key := range m.listed[txn] {
		delete(m.holders[key], txn)
		m.dequeue(key, txn, ErrReleased, out)
		m.promote(key, out)
	}
	delete(m.listed, txn)
	delete(m.wounded, txn)
	return out
}

func (m *model) outstanding() []HeldLock {
	var out []HeldLock
	for key, hs := range m.holders {
		for txn, mode := range hs {
			out = append(out, HeldLock{Key: key, Txn: txn, Mode: mode})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Txn < out[j].Txn
	})
	return out
}

// TestScriptAgainstModel drives a seeded random interleaving of Acquire,
// ReleaseOne and ReleaseAll (and, under wound-wait, the wounds they cause)
// from six transactions over four keys, one operation at a time, and after
// every step holds Held, OutstandingLocks and Stats against the model. An
// Acquire the model says must queue runs on its own goroutine; the step ends
// once the real table shows it queued, and every request the model says a
// step resolved must return, with the model's error, before the next.
func TestScriptAgainstModel(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	const txns = 6
	for _, policy := range []Policy{PolicyTimeout, PolicyWoundWait} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			real := New(Config{Policy: policy, Shards: 3, Timeout: time.Minute})
			ref := &model{policy: policy, holders: map[string]map[proto.TxnID]Mode{}, queue: map[string][]request{}, wounded: map[proto.TxnID]bool{}, listed: map[proto.TxnID]map[string]bool{}}
			for _, k := range keys {
				ref.holders[k] = map[proto.TxnID]Mode{}
			}
			waiting := map[proto.TxnID]chan error{} // transactions parked in Acquire

			settle := func(step int, op string, out resolved) {
				t.Helper()
				for txn, want := range out {
					select {
					case got := <-waiting[txn]:
						if !errors.Is(got, want) || (want == nil) != (got == nil) {
							t.Fatalf("%v seed %d step %d %s: t%d's parked Acquire = %v, want %v", policy, seed, step, op, txn, got, want)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("%v seed %d step %d %s: t%d's parked Acquire never returned, want %v", policy, seed, step, op, txn, want)
					}
					delete(waiting, txn)
				}
				for txn := proto.TxnID(1); txn <= txns; txn++ {
					want := map[string]Mode{}
					for _, k := range keys {
						if mode, ok := ref.holders[k][txn]; ok {
							want[k] = mode
						}
					}
					if got := real.Held(txn); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v seed %d step %d %s: Held(t%d) = %v, want %v", policy, seed, step, op, txn, got, want)
					}
					if got := real.Wounded(txn); got != ref.wounded[txn] {
						t.Fatalf("%v seed %d step %d %s: Wounded(t%d) = %v", policy, seed, step, op, txn, got)
					}
				}
				if got, want := real.OutstandingLocks(), ref.outstanding(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v seed %d step %d %s: OutstandingLocks = %v, want %v", policy, seed, step, op, got, want)
				}
				if got := real.Stats(); got != ref.stats {
					t.Fatalf("%v seed %d step %d %s: Stats = %+v, want %+v", policy, seed, step, op, got, ref.stats)
				}
			}

			for step := 0; step < 600; step++ {
				txn := proto.TxnID(1 + rng.Intn(txns))
				key := keys[rng.Intn(len(keys))]
				_, parked := waiting[txn]
				switch p := rng.Intn(10); {
				case p < 6 && !parked:
					mode := Mode(1 + rng.Intn(2))
					op := fmt.Sprintf("Acquire(t%d,%s,%v)", txn, key, mode)
					queued, want, out := ref.acquire(txn, key, mode)
					if !queued {
						if got := real.Acquire(context.Background(), txn, key, mode); !errors.Is(got, want) || (want == nil) != (got == nil) {
							t.Fatalf("%v seed %d step %d %s = %v, want %v", policy, seed, step, op, got, want)
						}
						settle(step, op, nil)
						continue
					}
					done := make(chan error, 1)
					waiting[txn] = done
					go func() { done <- real.Acquire(context.Background(), txn, key, mode) }()
					waitForQueue(t, real, key, len(ref.queue[key]))
					settle(step, op, out)
				case p < 7 && !parked:
					real.ReleaseOne(txn, key)
					settle(step, fmt.Sprintf("ReleaseOne(t%d,%s)", txn, key), ref.releaseOne(txn, key))
				case p >= 7:
					real.ReleaseAll(txn)
					settle(step, fmt.Sprintf("ReleaseAll(t%d)", txn), ref.releaseAll(txn))
				}
			}
			for txn := proto.TxnID(1); txn <= txns; txn++ {
				real.ReleaseAll(txn)
				settle(-1, "drain", ref.releaseAll(txn))
			}
			if ref.stats.Waited < 20 || policy == PolicyWoundWait && ref.stats.Wounds < 20 {
				t.Fatalf("%v seed %d: the script was too tame to test anything: %+v", policy, seed, ref.stats)
			}
			if len(waiting) != 0 || len(real.OutstandingLocks()) != 0 {
				t.Fatalf("%v seed %d: %d parked, %v held after the drain", policy, seed, len(waiting), real.OutstandingLocks())
			}
		}
	}
}
