package main

// defaultSeed is the workload seed the pinned digests below belong to.
const defaultSeed = 1

// sizes sets how much work one run does.
type sizes struct {
	// SetupReps is how many times a local run builds its fixture, and
	// ServeSetupReps how many times serve-sharded starts a server and
	// trains its fixture; setup_s is the median.
	SetupReps      int
	ServeSetupReps int
	// Budget is the trial count of each seeded campaign on neuron-reuse
	// and int8-reuse; WeightBudget on weight-full.
	Budget       int
	WeightBudget int
	// TargetCap is the trial budget of the time-to-target campaign: the
	// fixed-count design a study would size before seeing any data,
	// ceil(z^2 / (4 hw^2)) = 38,416 at ±0.5% and 95%.
	TargetCap int
	// MinReps is the least number of timed campaigns of each kind a run
	// makes, however short --seconds is.
	MinReps int
	// ServeTrials is each serve-sharded campaign's trial count and
	// ServeEpochs the training length of its fixture.
	ServeTrials int
	ServeEpochs int
	// KernelReps, OverheadSeconds (at most OverheadPairs pairs) and
	// CheckpointReps size the per-layer probes of a traced run.
	KernelReps      int
	OverheadSeconds float64
	OverheadPairs   int
	CheckpointReps  int
}

var defaultSizes = sizes{
	SetupReps:       9,
	ServeSetupReps:  3,
	Budget:          1000,
	WeightBudget:    240,
	TargetCap:       38416,
	MinReps:         2,
	ServeTrials:     4000,
	ServeEpochs:     4,
	KernelReps:      15,
	OverheadSeconds: 3,
	OverheadPairs:   20000,
	CheckpointReps:  31,
}

// pinnedDigests are the reference results at defaultSizes: the digest
// (see digest) of the engine's reference configuration — one worker,
// sequential schedule, no prefix reuse — for each workload's campaigns.
// Keys are "<workload>/budget/<seed>" for the seeded campaigns at the
// default seed and "<workload>/target" for the time-to-target campaign,
// whose seed is fixed. Any other seed's reference is computed at run
// time by running that configuration.
var pinnedDigests = map[string]string{
	"neuron-reuse/target":    "597dc5856451e505",
	"int8-reuse/target":      "826b03ea5cc1d5de",
	"neuron-reuse/budget/1":  "87875bfa94fc4c20",
	"weight-full/budget/1":   "1764174315301135",
	"int8-reuse/budget/1":    "da6ba2eef76c3982",
	"serve-sharded/budget/1": "87ed1f32a8811e98",
}
