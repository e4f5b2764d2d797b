package statedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nezha-dag/nezha/internal/kvstore"
	"github.com/nezha-dag/nezha/internal/mpt"
	"github.com/nezha-dag/nezha/internal/mvcc"
	"github.com/nezha-dag/nezha/internal/types"
)

// parkingStore parks every Apply while park is set: it signals parked and
// waits for release.
type parkingStore struct {
	kvstore.Store
	park    atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (s *parkingStore) Apply(b *kvstore.Batch) error {
	if s.park.Load() {
		s.parked <- struct{}{}
		<-s.release
	}
	return s.Store.Apply(b)
}

// TestPublishAndSealReadersDoNotWaitForFlush: while a commit's flush is
// parked inside the store, Get returns — it takes no lock the commit holds —
// and reads the pre-commit value, for a key the batch writes and for a cold
// one it does not. Once the flush is let go, Get reads the committed value.
func TestPublishAndSealReadersDoNotWaitForFlush(t *testing.T) {
	store := &parkingStore{Store: kvstore.NewMemory(), parked: make(chan struct{}), release: make(chan struct{})}
	db := Open(store, mpt.EmptyRoot)
	var genesis, epoch []types.WriteEntry
	for i := uint64(0); i < 300; i++ {
		genesis = append(genesis, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("old-%d", i))})
	}
	for i := uint64(250); i < 450; i++ {
		epoch = append(epoch, types.WriteEntry{Key: keyN(i), Value: []byte(fmt.Sprintf("new-%d", i))})
	}
	if _, err := db.Commit(genesis); err != nil {
		t.Fatal(err)
	}
	db.View() // commits go through the version cache, as on a node

	store.park.Store(true)
	committed := make(chan error, 1)
	go func() {
		_, err := db.Commit(epoch)
		committed <- err
	}()
	<-store.parked
	read := make(chan error, 1)
	go func() {
		for _, c := range []struct {
			key  uint64
			want string
		}{{260, "old-260"}, {7, "old-7"}} {
			if got, err := db.Get(keyN(c.key)); err != nil || string(got) != c.want {
				read <- fmt.Errorf("Get(%d) during the flush = %q, %v; want the pre-commit %q", c.key, got, err, c.want)
				return
			}
		}
		read <- nil
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("Get waits for the commit's flush")
	}
	store.park.Store(false)
	close(store.release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if got, err := db.Get(keyN(260)); err != nil || string(got) != "new-260" {
		t.Fatalf("Get(260) after the commit = %q, %v", got, err)
	}
}

// TestPublishAndSealConcurrentReaders is mvcc's
// TestConcurrentReadersDuringCommit on the real backend: readers read
// random keys of a 2 000-cell state, most of them cold, through the view
// each PublishAndSeal hands out between its halves and through Get, while
// the commits loop and the watermark advances. A view reads exactly the
// state of its generation; Get reads the state of a root committed between
// the last commit finished before the read and the last one begun after it.
// No reader may see a future value.
func TestPublishAndSealConcurrentReaders(t *testing.T) {
	const keys, epochs = 2_000, 40
	rng := rand.New(rand.NewSource(43))
	stamp := func(e int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(e)) }
	// plan[e] is epoch e's batch; epoch 0 writes every cell.
	plan := make([][]types.WriteEntry, epochs+1)
	cell := make(map[types.Key]int, keys)
	for i := 0; i < keys; i++ {
		cell[keyN(uint64(i))] = i
		plan[0] = append(plan[0], types.WriteEntry{Key: keyN(uint64(i)), Value: stamp(0)})
	}
	for e := 1; e <= epochs; e++ {
		for i := 0; i < keys; i++ {
			if rng.Intn(10) == 0 {
				plan[e] = append(plan[e], types.WriteEntry{Key: keyN(uint64(i)), Value: stamp(e)})
			}
		}
	}
	// last[e][i] is the epoch that wrote cell i's value as of epoch e.
	last := make([][]int, epochs+1)
	last[0] = make([]int, keys)
	for e := 1; e <= epochs; e++ {
		last[e] = slices.Clone(last[e-1])
		for _, w := range plan[e] {
			last[e][cell[w.Key]] = e
		}
	}

	db := Open(kvstore.NewMemory(), mpt.EmptyRoot)
	if _, err := db.Commit(plan[0]); err != nil {
		t.Fatal(err)
	}
	base := db.View().Gen() // the generation of epoch 0
	var latest atomic.Pointer[mvcc.View]
	latest.Store(db.View())
	var begun, done atomic.Int64 // the last epoch whose commit began, and finished
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				v := latest.Load()
				e := int(v.Gen() - base)
				got, err := v.Get(keyN(uint64(i)))
				if errors.Is(err, mvcc.ErrBelowWatermark) || db.mv.Watermark() > v.Gen() {
					continue // the view's generation was collected: no guarantee
				}
				if err != nil || len(got) != 8 || int(binary.BigEndian.Uint64(got)) != last[e][i] {
					t.Errorf("view at epoch %d reads %x, %v for cell %d; its value there is epoch %d's", e, got, err, i, last[e][i])
					return
				}
				lo := int(done.Load())
				got, err = db.Get(keyN(uint64(i)))
				hi := int(begun.Load())
				if err != nil || len(got) != 8 {
					t.Errorf("Get(cell %d) = %x, %v", i, got, err)
					return
				}
				ok := false
				for e := lo; e <= hi && !ok; e++ {
					ok = int(binary.BigEndian.Uint64(got)) == last[e][i]
				}
				if !ok {
					t.Errorf("Get(cell %d) reads epoch %d's value, the value of no root committed in epochs [%d, %d]", i, binary.BigEndian.Uint64(got), lo, hi)
					return
				}
			}
		}(int64(r))
	}
	for e := 1; e <= epochs; e++ {
		begun.Store(int64(e))
		_, _, err := db.PublishAndSeal(plan[e], 2, func(v *mvcc.View) error {
			latest.Store(v)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		done.Store(int64(e))
		if e%8 == 0 {
			db.AdvanceWatermark()
		}
	}
	close(stop)
	wg.Wait()
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
