package transfer

import (
	"github.com/elasticflow/elasticflow/internal/topology"
)

// CostModel prices checkpoint movement. Both the simulator and the live
// platform take it from throughput.Estimator.CostModel, so the same move
// costs the same seconds in both — the acceptance bar for honest §4.4
// numbers.
//
//   - RescaleCost is the serialize + coordinate + deserialize cost every
//     worker-count change pays regardless of placement: FixedSec plus one
//     checkpoint written and one read at CheckpointGBps.
//   - TransferTime is the extra wire time when the checkpoint also crosses
//     a topology link: bytes over the bandwidth of the transfer level.
//   - MigrateCost is their sum — what a placement-changing move costs.
type CostModel struct {
	// FixedSec is the fixed coordination cost of a rescale (process
	// restart, NCCL communicator rebuild).
	FixedSec float64
	// CheckpointGBps is the serialize/deserialize rate in GB/s.
	CheckpointGBps float64
	// BW is the per-tier link bandwidth table.
	BW topology.Bandwidths
}

// RescaleCost returns the seconds an in-place rescale of a job with the
// given checkpoint size costs: the state is written once and read once.
func (m CostModel) RescaleCost(bytes int64) float64 {
	gb := float64(bytes) / 1e9
	rate := m.CheckpointGBps
	if rate <= 0 {
		return m.FixedSec
	}
	return m.FixedSec + 2*gb/rate
}

// TransferTime returns the extra seconds the checkpoint spends crossing
// the link of the given topology tier. LevelGPU (no link crossed, or an
// unmodeled tier) and non-positive sizes cost nothing, so a zero-valued
// job prices exactly as before the data plane existed.
func (m CostModel) TransferTime(bytes int64, lvl topology.Level) float64 {
	if bytes <= 0 {
		return 0
	}
	bw := m.BW.AtLevel(lvl)
	gb := float64(bytes) / 1e9
	t := gb / bw // bw is +Inf for LevelGPU/unmodeled → 0
	return t
}

// MigrateCost returns the full cost of a placement-changing move: the
// rescale cost plus the wire time at the given transfer level.
func (m CostModel) MigrateCost(bytes int64, lvl topology.Level) float64 {
	return m.RescaleCost(bytes) + m.TransferTime(bytes, lvl)
}
