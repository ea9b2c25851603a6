package frontdoor

import (
	"net/http/httptest"
	"testing"

	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/topology"
)

func newClientFixture(t *testing.T) (*Client, *testClock, func()) {
	t.Helper()
	clk := newTestClock()
	fd, err := New(Options{ShardTopology: topology.Config{Servers: 2, GPUsPerServer: 8}, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(fd))
	return NewClient(srv.URL), clk, func() {
		srv.Close()
		if err := fd.Shutdown(); err != nil {
			t.Error(err)
		}
	}
}

func TestClientSubmitGetCancel(t *testing.T) {
	c, clk, done := newClientFixture(t)
	defer done()

	st, err := c.Submit(serverless.SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 7200})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.GPUs == 0 {
		t.Fatalf("unexpected submit status: %+v", st)
	}

	clk.Advance(60)
	got, err := c.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.DoneIters <= 0 {
		t.Error("no progress reported")
	}

	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("list has %d entries want 1", len(list))
	}

	if err := c.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(st.ID); err != nil || got.State != "cancelled" || got.GPUs != 0 {
		t.Errorf("after cancel: %+v, %v; want cancelled holding no GPUs", got, err)
	}
}

func TestClientDroppedSubmission(t *testing.T) {
	c, _, done := newClientFixture(t)
	defer done()

	st, err := c.Submit(serverless.SubmitRequest{Model: "gpt2", GlobalBatch: 256, Iterations: 1e9, DeadlineSeconds: 30})
	if err == nil {
		t.Fatal("expected admission rejection error")
	}
	if !IsDropped(err) {
		t.Fatalf("error %v not recognized as a drop", err)
	}
	if st.State != "dropped" {
		t.Errorf("status state=%q want dropped", st.State)
	}
}

func TestClientErrors(t *testing.T) {
	c, _, done := newClientFixture(t)
	defer done()

	if _, err := c.Get("ghost"); err == nil || IsDropped(err) {
		t.Errorf("Get(ghost) err = %v, want non-drop error", err)
	}
	if err := c.Cancel("ghost"); err == nil {
		t.Error("Cancel(ghost) succeeded")
	}
	if _, err := c.Submit(serverless.SubmitRequest{Model: "unknown"}); err == nil || IsDropped(err) {
		t.Errorf("Submit(bad) err = %v, want validation error", err)
	}
}

func TestClientUnreachable(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	if _, err := c.List(); err == nil {
		t.Error("unreachable server produced no error")
	}
}
