package transfer

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/elasticflow/elasticflow/internal/topology"
)

func topoLevel(l int) topology.Level { return topology.Level(l) }

// memPeer is an in-memory Peer: the reference receiver the agent's RPC
// implementation mirrors.
type memPeer struct {
	objects map[string][]byte
	pushes  map[string]*pushState
	staged  map[string][]byte
	closed  map[string]bool
}

type pushState struct {
	size int64
	crc  uint32
	buf  []byte
}

func newMemPeer() *memPeer {
	return &memPeer{
		objects: map[string][]byte{},
		pushes:  map[string]*pushState{},
		staged:  map[string][]byte{},
		closed:  map[string]bool{},
	}
}

func (p *memPeer) offer(id string, data []byte) Offer {
	p.objects[id] = data
	return Offer{ID: id, Size: int64(len(data)), CRC: Checksum(data)}
}

func (p *memPeer) Read(id string, offset int64, n int) (Chunk, error) {
	obj, ok := p.objects[id]
	if !ok {
		return Chunk{}, fmt.Errorf("memPeer: unknown transfer %q", id)
	}
	if offset < 0 || offset >= int64(len(obj)) {
		return Chunk{}, fmt.Errorf("memPeer: offset %d out of range [0,%d)", offset, len(obj))
	}
	if rem := int64(len(obj)) - offset; rem < int64(n) {
		n = int(rem)
	}
	return ChunkAt(obj, offset, n), nil
}

func (p *memPeer) Close(id string) error {
	p.closed[id] = true
	return nil
}

func (p *memPeer) BeginPush(id string, size int64, crc uint32) (int64, error) {
	if st, ok := p.pushes[id]; ok && st.size == size && st.crc == crc {
		return int64(len(st.buf)), nil
	}
	p.pushes[id] = &pushState{size: size, crc: crc}
	return 0, nil
}

func (p *memPeer) Push(id string, c Chunk) error {
	st, ok := p.pushes[id]
	if !ok {
		return fmt.Errorf("memPeer: push without begin for %q", id)
	}
	if err := c.Verify(); err != nil {
		return err
	}
	committed := int64(len(st.buf))
	if c.Offset+int64(len(c.Data)) <= committed {
		return nil // duplicate of committed bytes: idempotent ack
	}
	if c.Offset != committed {
		return fmt.Errorf("memPeer: chunk at %d but committed %d (gap)", c.Offset, committed)
	}
	st.buf = append(st.buf, c.Data...)
	return nil
}

func (p *memPeer) Commit(id string) error {
	st, ok := p.pushes[id]
	if !ok {
		return fmt.Errorf("memPeer: commit without begin for %q", id)
	}
	if int64(len(st.buf)) != st.size || Checksum(st.buf) != st.crc {
		delete(p.pushes, id)
		return fmt.Errorf("%s: staged object %d bytes crc %08x, declared %d/%08x",
			chunkCRCMsg, len(st.buf), Checksum(st.buf), st.size, st.crc)
	}
	p.staged[id] = st.buf
	delete(p.pushes, id)
	return nil
}

// faultyPeer wraps a Peer with scripted failures keyed by call ordinal.
type faultyPeer struct {
	Peer
	calls int
	// fail maps a 1-based call ordinal to the fault applied to it.
	fail map[int]func(Chunk, error) (Chunk, error)
}

var errConn = errors.New("connection reset")

func (f *faultyPeer) Read(id string, offset int64, n int) (Chunk, error) {
	f.calls++
	c, err := f.Peer.Read(id, offset, n)
	if fn, ok := f.fail[f.calls]; ok {
		return fn(c, err)
	}
	return c, err
}

func (f *faultyPeer) Push(id string, c Chunk) error {
	f.calls++
	if fn, ok := f.fail[f.calls]; ok {
		if _, err := fn(c, nil); err != nil {
			return err
		}
		// Tampered payload forwarded: the receiver must refuse it.
		tampered := c
		tampered.Data = append([]byte{}, c.Data...)
		if len(tampered.Data) > 0 {
			tampered.Data[0] ^= 0xFF
		}
		return f.Peer.Push(id, tampered)
	}
	return f.Peer.Push(id, c)
}

func dropCall(Chunk, error) (Chunk, error) { return Chunk{}, errConn }

func corruptCall(c Chunk, err error) (Chunk, error) {
	if err != nil {
		return c, err
	}
	c.Data = append([]byte{}, c.Data...)
	if len(c.Data) > 0 {
		c.Data[0] ^= 0xFF
	}
	return c, nil // CRC now stale: receiver-side Verify fails
}

func testObject(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

func TestFetchCleanRoundTrip(t *testing.T) {
	p := newMemPeer()
	data := testObject(10_000)
	off := p.offer("t1", data)
	m := &Mover{ChunkSize: 1024}
	got, err := m.Fetch(p, off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched bytes differ from source")
	}
	if m.Stats.Bytes != int64(len(data)) || m.Stats.Chunks != 10 {
		t.Errorf("Stats = %+v, want 10000 bytes in 10 chunks", m.Stats)
	}
	if m.Stats.Retries != 0 || m.Stats.Resumes != 0 || m.Stats.Corruptions != 0 {
		t.Errorf("clean fetch recorded failures: %+v", m.Stats)
	}
	if !p.closed["t1"] {
		t.Error("fetch did not unpin the transfer")
	}
}

func TestFetchResumesAfterDrop(t *testing.T) {
	p := newMemPeer()
	data := testObject(8_000)
	off := p.offer("t1", data)
	f := &faultyPeer{Peer: p, fail: map[int]func(Chunk, error) (Chunk, error){
		3: dropCall, 4: dropCall, // stream dies twice at offset 2048
	}}
	m := &Mover{ChunkSize: 1024}
	got, err := m.Fetch(f, off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched bytes differ from source after resume")
	}
	if m.Stats.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1 (one continuation after consecutive drops)", m.Stats.Resumes)
	}
	if m.Stats.Retries != 2 {
		t.Errorf("Retries = %d, want 2", m.Stats.Retries)
	}
}

func TestFetchDetectsCorruption(t *testing.T) {
	p := newMemPeer()
	data := testObject(4_000)
	off := p.offer("t1", data)
	f := &faultyPeer{Peer: p, fail: map[int]func(Chunk, error) (Chunk, error){
		2: corruptCall,
	}}
	m := &Mover{ChunkSize: 1024}
	got, err := m.Fetch(f, off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupted chunk leaked into the assembled object")
	}
	if m.Stats.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", m.Stats.Corruptions)
	}
}

func TestFetchRefusesPersistentCorruption(t *testing.T) {
	p := newMemPeer()
	off := p.offer("t1", testObject(2_000))
	f := &faultyPeer{Peer: p, fail: map[int]func(Chunk, error) (Chunk, error){}}
	for i := 1; i <= 100; i++ {
		f.fail[i] = corruptCall
	}
	m := &Mover{ChunkSize: 1024, MaxChunkRetries: 3}
	if _, err := m.Fetch(f, off); err == nil {
		t.Fatal("fetch succeeded through persistent corruption")
	}
	if m.Stats.Corruptions < 3 {
		t.Errorf("Corruptions = %d, want ≥ MaxChunkRetries", m.Stats.Corruptions)
	}
}

func TestFetchRefusesMismatchedOffer(t *testing.T) {
	p := newMemPeer()
	off := p.offer("t1", testObject(1_000))
	off.CRC ^= 1 // the offer lies about the whole-object CRC
	m := &Mover{ChunkSize: 256}
	if _, err := m.Fetch(p, off); err == nil {
		t.Fatal("fetch accepted an object whose CRC does not match the offer")
	}
}

func TestFetchFatalAborts(t *testing.T) {
	p := newMemPeer()
	off := p.offer("t1", testObject(4_000))
	fatal := errors.New("agent down")
	f := &faultyPeer{Peer: p, fail: map[int]func(Chunk, error) (Chunk, error){
		2: func(Chunk, error) (Chunk, error) { return Chunk{}, fatal },
	}}
	m := &Mover{ChunkSize: 1024, Fatal: func(err error) bool { return errors.Is(err, fatal) }}
	if _, err := m.Fetch(f, off); !errors.Is(err, fatal) {
		t.Fatalf("Fetch = %v, want the fatal error unretried", err)
	}
	if m.Stats.Retries != 0 {
		t.Errorf("fatal error was retried %d times", m.Stats.Retries)
	}
}

func TestPushCleanRoundTrip(t *testing.T) {
	p := newMemPeer()
	data := testObject(10_000)
	m := &Mover{ChunkSize: 1024}
	if err := m.Push(p, "t1", data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.staged["t1"], data) {
		t.Fatal("staged bytes differ from source")
	}
	if m.Stats.Bytes != int64(len(data)) {
		t.Errorf("Stats.Bytes = %d, want %d", m.Stats.Bytes, len(data))
	}
}

func TestPushResumesFromCommittedOffset(t *testing.T) {
	p := newMemPeer()
	data := testObject(8_000)
	// Calls: 1=BeginPush is NOT counted (faultyPeer only wraps Read/Push);
	// drop the 4th and 5th chunk sends.
	f := &faultyPeer{Peer: p, fail: map[int]func(Chunk, error) (Chunk, error){
		4: dropCall, 5: dropCall,
	}}
	m := &Mover{ChunkSize: 1024}
	if err := m.Push(f, "t1", data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.staged["t1"], data) {
		t.Fatal("staged bytes differ from source after resume")
	}
	if m.Stats.Resumes == 0 {
		t.Error("push resumed silently: Resumes = 0")
	}
}

func TestPushReceiverRefusesCorruptChunk(t *testing.T) {
	p := newMemPeer()
	data := testObject(4_000)
	// Call 2 forwards a tampered payload with the original CRC: the
	// receiver must refuse it and the mover re-send.
	f := &faultyPeer{Peer: p, fail: map[int]func(Chunk, error) (Chunk, error){
		2: func(c Chunk, _ error) (Chunk, error) { return c, nil },
	}}
	m := &Mover{ChunkSize: 1024}
	if err := m.Push(f, "t1", data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.staged["t1"], data) {
		t.Fatal("corrupt chunk landed in the staged object")
	}
	if m.Stats.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", m.Stats.Corruptions)
	}
}

func TestCommitRefusesDamagedObject(t *testing.T) {
	p := newMemPeer()
	data := testObject(2_000)
	m := &Mover{ChunkSize: 1024}
	// Land the bytes, then damage the receiver's staging buffer before
	// commit: the whole-object CRC must refuse it.
	if _, err := p.BeginPush("t1", int64(len(data)), Checksum(data)); err != nil {
		t.Fatal(err)
	}
	if err := p.Push("t1", ChunkAt(data, 0, len(data))); err != nil {
		t.Fatal(err)
	}
	p.pushes["t1"].buf[100] ^= 0xFF
	err := m.Push(p, "t1", data)
	if err == nil {
		t.Fatal("commit applied a damaged object")
	}
	if _, ok := p.staged["t1"]; ok {
		t.Fatal("damaged object reached staging")
	}
}

func TestIsChunkCRCThroughRPCFlattening(t *testing.T) {
	direct := Chunk{Offset: 0, Data: []byte{1}, CRC: 0}.Verify()
	if !IsChunkCRC(direct) {
		t.Error("typed chunk-CRC error not recognized")
	}
	// net/rpc delivers server errors as flat strings.
	flattened := errors.New(direct.Error())
	if !IsChunkCRC(flattened) {
		t.Error("string-flattened chunk-CRC error not recognized")
	}
	if IsChunkCRC(errConn) {
		t.Error("transport error misclassified as corruption")
	}
	if IsChunkCRC(nil) {
		t.Error("nil misclassified as corruption")
	}
}

func TestCostModelPricesMoveByTopology(t *testing.T) {
	// model.DefaultA100's constants (the estimator that prices both hosts
	// imports this package, so they are spelled out).
	m := CostModel{FixedSec: 15, CheckpointGBps: 1, BW: topology.Bandwidths{NVLinkGBps: 250, PCIeGBps: 64, NICGBps: 20, CrossRackGBps: 10}}
	const bytes = 2_000_000_000 // 2 GB
	// In-place rescale: no link crossed.
	if got, want := m.RescaleCost(bytes), 15+2*2.0/1.0; got != want {
		t.Errorf("RescaleCost = %v, want %v", got, want)
	}
	// Zero bytes keeps the legacy scalar pricing exactly.
	if got := m.MigrateCost(0, 4); got != m.FixedSec {
		t.Errorf("MigrateCost(0 bytes) = %v, want the fixed cost %v", got, m.FixedSec)
	}
	// The same bytes cost more over slower links.
	var prev float64
	for _, lvl := range []int{0, 1, 2, 3, 4} {
		got := m.TransferTime(bytes, topoLevel(lvl))
		if got < prev {
			t.Errorf("TransferTime not monotone in level: level %d = %v < %v", lvl, got, prev)
		}
		prev = got
	}
	// Cross-rack: 2 GB over 10 GB/s.
	if got, want := m.TransferTime(bytes, topoLevel(4)), 0.2; !almostEq(got, want) {
		t.Errorf("cross-rack TransferTime = %v, want %v", got, want)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
