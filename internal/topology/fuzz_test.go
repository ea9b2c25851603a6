package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// compactHistory decodes data into a cluster of 2 to 256 GPUs under one of
// the three policies and a history of Allocate, AllocateWithMigration,
// Release and Reserve calls, runs it on a Cluster and on refCluster, and
// fails t at the first call whose block, error, migrations, placements, free
// lists or free-GPU count differ. It returns the number of migrations made.
func compactHistory(t *testing.T, data []byte) int {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	logTotal := 1 + next()%8
	logPer := next() % (logTotal + 1)
	cfg := Config{Servers: 1 << (logTotal - logPer), GPUsPerServer: 1 << logPer, Policy: AllocPolicy(next() % 3)}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	r := newRefCluster(cfg)
	total := c.TotalGPUs()
	migrations := 0
	for step := 0; len(data) > 0; step++ {
		op, id := next()%8, fmt.Sprintf("j%d", next()%24)
		size := 1 << (next() % (logTotal + 1))
		var got, want Block
		var gotMigs, wantMigs []Migration
		var gotErr, wantErr error
		var call string
		switch op {
		case 0, 1:
			call = fmt.Sprintf("Allocate(%s, %d)", id, size)
			got, gotErr = c.Allocate(id, size)
			want, wantErr = r.allocate(id, size)
		case 2, 3, 4:
			call = fmt.Sprintf("AllocateWithMigration(%s, %d)", id, size)
			got, gotMigs, gotErr = c.AllocateWithMigration(id, size)
			want, wantMigs, wantErr = r.allocateWithMigration(id, size)
		case 5:
			// Any size, so that the error paths run too.
			size = 1 + next()%(2*total)
			call = fmt.Sprintf("AllocateWithMigration(%s, %d)", id, size)
			got, gotMigs, gotErr = c.AllocateWithMigration(id, size)
			want, wantMigs, wantErr = r.allocateWithMigration(id, size)
		case 6:
			call = fmt.Sprintf("Release(%s)", id)
			gotErr, wantErr = c.Release(id), r.release(id)
		case 7:
			b := Block{Start: next() * size % total, Size: size}
			call = fmt.Sprintf("Reserve(%s, %v)", id, b)
			gotErr, wantErr = c.Reserve(id, b), r.reserve(id, b)
		}
		where := fmt.Sprintf("step %d on %+v: %s", step, cfg, call)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
		}
		if got != want || !reflect.DeepEqual(gotMigs, wantMigs) {
			t.Fatalf("%s: block %v migrations %v, reference %v %v", where, got, gotMigs, want, wantMigs)
		}
		if p := c.Placements(); !reflect.DeepEqual(p, r.owned) {
			t.Fatalf("%s: placements %v, reference %v", where, p, r.owned)
		}
		if fl, rfl := freeLists(c), r.freeLists(); !reflect.DeepEqual(fl, rfl) {
			t.Fatalf("%s: free lists %v, reference %v", where, fl, rfl)
		}
		if c.FreeGPUs() != r.freeGPUs() || c.LargestFreeBlock() != r.largestFreeBlock() {
			t.Fatalf("%s: free %d largest %d, reference %d %d", where, c.FreeGPUs(), c.LargestFreeBlock(), r.freeGPUs(), r.largestFreeBlock())
		}
		migrations += len(gotMigs)
	}
	return migrations
}

// randomHistory returns n random bytes from seed, a compactHistory input.
func randomHistory(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// FuzzCompact holds placement — container lookups, compaction on the free
// lists, the free-GPU counter — to refCluster over arbitrary histories.
func FuzzCompact(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(randomHistory(seed, 150))
	}
	f.Fuzz(func(t *testing.T, data []byte) { compactHistory(t, data) })
}

// TestCompactMatchesReference runs compactHistory over random histories and
// checks that they compacted at all, so the oracle is not vacuous.
func TestCompactMatchesReference(t *testing.T) {
	migrations := 0
	for seed := int64(0); seed < 200; seed++ {
		migrations += compactHistory(t, randomHistory(seed, 600))
	}
	if migrations == 0 {
		t.Fatal("no history migrated a job")
	}
	t.Logf("%d migrations", migrations)
}
