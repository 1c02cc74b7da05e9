package core

import (
	"math"

	"repro/internal/cost"
	"repro/internal/layout"
)

// Single source of truth for every search default. The public mctsui
// package re-exports these constants, and Options.withDefaults below is the
// only place they are applied — config docs, the engine, and cmd flags all
// resolve through here, so the values cannot silently drift.
const (
	// DefaultIterations is the MCTS iteration budget (the paper's ~1-minute
	// wall clock resolves to roughly this many iterations on its logs).
	DefaultIterations = 60
	// DefaultRolloutDepth bounds random walks. The paper allows up to 200
	// steps; 16 rests on an ablation at equal iterations on SDSS
	// (experiments.AblationRollout). At equal wall-clock time depth 4
	// measured ahead (see ROADMAP).
	DefaultRolloutDepth = 16
	// DefaultRewardSamples is k, the random widget assignments scored per
	// state during search.
	DefaultRewardSamples = 5
	// DefaultSeed makes generation deterministic out of the box.
	DefaultSeed = 1
	// DefaultEnumLimit caps the final widget-tree enumeration.
	DefaultEnumLimit = 20000
	// DefaultNavUnit is the Steiner-edge navigation cost every generation's
	// cost model (cost.Default) uses; no option overrides it.
	DefaultNavUnit = cost.DefaultNavUnit
	// DefaultBeamWidth is the frontier width of StrategyBeam.
	DefaultBeamWidth = 8
	// DefaultRandomWalks is the walk count of StrategyRandom.
	DefaultRandomWalks = 30
	// DefaultExhaustiveCap bounds StrategyExhaustive's state sweep.
	DefaultExhaustiveCap = 50000
	// DefaultExplorationC is the UCT exploration constant c = √2.
	DefaultExplorationC = math.Sqrt2
)

// withDefaults fills every zero field with the package defaults above.
func (o Options) withDefaults() Options {
	if o.Screen == (layout.Screen{}) {
		o.Screen = layout.Wide
	}
	if o.Iterations <= 0 && o.TimeBudget <= 0 {
		o.Iterations = DefaultIterations
	}
	if o.RolloutDepth <= 0 {
		o.RolloutDepth = DefaultRolloutDepth
	}
	if o.RewardSamples <= 0 {
		o.RewardSamples = DefaultRewardSamples
	}
	if o.ExplorationC == 0 {
		o.ExplorationC = DefaultExplorationC
	}
	if o.EnumLimit <= 0 {
		o.EnumLimit = DefaultEnumLimit
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Strategy == nil {
		o.Strategy = StrategyMCTS()
	}
	return o
}
