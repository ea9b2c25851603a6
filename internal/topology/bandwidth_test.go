package topology

import (
	"math"
	"testing"
)

func TestAtLevel(t *testing.T) {
	bw := Bandwidths{NVLinkGBps: 250, PCIeGBps: 64, NICGBps: 20, CrossRackGBps: 10}
	cases := []struct {
		l    Level
		want float64
	}{
		{LevelGPU, math.Inf(1)},
		{LevelSocket, 250},
		{LevelServer, 64},
		{LevelRack, 20},
		{LevelCluster, 10},
	}
	for _, c := range cases {
		if got := bw.AtLevel(c.l); got != c.want {
			t.Errorf("AtLevel(%v) = %v, want %v", c.l, got, c.want)
		}
	}
	// Unmodeled tiers are free, not divide-by-zero.
	if got := (Bandwidths{}).AtLevel(LevelCluster); !math.IsInf(got, 1) {
		t.Errorf("zero-valued Bandwidths.AtLevel(cluster) = %v, want +Inf", got)
	}
}

func TestTransferLevel(t *testing.T) {
	// 4 servers × 8 GPUs, 4 per socket, 2 servers per rack.
	cfg := Config{Servers: 4, GPUsPerServer: 8, ServersPerRack: 2}
	cases := []struct {
		name     string
		from, to Block
		want     Level
	}{
		{"in-place", Block{0, 4}, Block{0, 4}, LevelGPU},
		{"same socket", Block{0, 1}, Block{1, 1}, LevelSocket},
		{"grow within socket", Block{0, 2}, Block{0, 4}, LevelSocket},
		{"cross socket", Block{0, 4}, Block{4, 4}, LevelServer},
		{"cross server same rack", Block{0, 8}, Block{8, 8}, LevelRack},
		{"cross rack", Block{0, 8}, Block{16, 8}, LevelCluster},
		{"grow across servers", Block{0, 8}, Block{0, 16}, LevelRack},
	}
	for _, c := range cases {
		if got := TransferLevel(cfg, c.from, c.to); got != c.want {
			t.Errorf("%s: TransferLevel(%v→%v) = %v, want %v", c.name, c.from, c.to, got, c.want)
		}
	}
}

func TestTransferLevelMatchesClusterLevel(t *testing.T) {
	// The container holding both blocks is classified with the same
	// thresholds Cluster.Level uses, so a block's self-contained level and
	// a zero-distance move agree with the allocator's view.
	cfg := Config{Servers: 2, GPUsPerServer: 8}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Block{{0, 1}, {0, 2}, {0, 4}, {0, 8}, {0, 16}} {
		lvl := c.Level(b)
		// Moving within b (e.g. its two halves) never exceeds b's level.
		if b.Size >= 2 {
			half := b.Size / 2
			got := TransferLevel(cfg, Block{b.Start, half}, Block{b.Start + half, half})
			if got > lvl {
				t.Errorf("halves of %v transfer at %v, above the block's own level %v", b, got, lvl)
			}
		}
	}
}
