package obs

import (
	"sync"
	"testing"

	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

func TestBusPublishSince(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 5; i++ {
		seq := b.Publish(Event{Time: float64(i), Kind: KindAdmit, JobID: "j"})
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	all := b.Since(0)
	if len(all) != 5 {
		t.Fatalf("Since(0) = %d events, want 5", len(all))
	}
	for i, ev := range all {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	tail := b.Since(4)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Errorf("Since(4) = %+v, want seqs 4,5", tail)
	}
	if b.LastSeq() != 5 {
		t.Errorf("LastSeq = %d, want 5", b.LastSeq())
	}
}

func TestBusRingEviction(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Time: float64(i)})
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if b.Evicted() != 6 {
		t.Errorf("Evicted = %d, want 6", b.Evicted())
	}
	got := b.Since(0)
	if len(got) != 4 || got[0].Seq != 7 || got[3].Seq != 10 {
		t.Errorf("retained seqs = %v, want 7..10", got)
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Publish(Event{Kind: KindAdmit})
			}
		}()
	}
	wg.Wait()
	if b.LastSeq() != 800 {
		t.Errorf("LastSeq = %d, want 800", b.LastSeq())
	}
}

func TestEventDetailAndField(t *testing.T) {
	ev := Event{Kind: KindComplete, Fields: []tracing.Attr{tracing.A("met", true), tracing.A("gpus", 4)}}
	if v, ok := ev.Field("gpus"); !ok || v != "4" {
		t.Errorf("Field(gpus) = %q,%t", v, ok)
	}
	if _, ok := ev.Field("absent"); ok {
		t.Error("Field(absent) found")
	}
}
