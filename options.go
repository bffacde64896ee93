package repro

// Option tunes an Engine at construction, one Config field each. A run is
// bounded in time by the context passed to Run, not by an option.
type Option func(*Config)

// WithStrategy schedules extension evaluation with st (default: DFS).
func WithStrategy(st Strategy) Option { return func(c *Config) { c.Strategy = st } }

// WithWorkers evaluates extensions on n simulated CPU cores (Fig. 2).
// Order-insensitive strategies (DFS, Random) are scheduled over n
// work-stealing deques, one per worker; order-sensitive ones share a
// single queue under a dedicated scheduler lock.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithRandomSeed seeds the Random strategy when a guest selects it. The
// sharded scheduler derives its per-worker pop streams from the Random
// strategy's own seed.
func WithRandomSeed(seed uint64) Option { return func(c *Config) { c.RandomSeed = seed } }

// WithMaxSolutions stops the search after n recorded solutions. Prefer
// Engine.Solutions with an early break when "first answer" is the goal.
func WithMaxSolutions(n int) Option { return func(c *Config) { c.MaxSolutions = n } }

// WithMaxNodes bounds evaluated extension steps (a safety net).
func WithMaxNodes(n int64) Option { return func(c *Config) { c.MaxNodes = n } }

// WithOnSolution delivers each solution to fn as it surfaces; returning
// Stop halts the search (queues drained, snapshots released).
func WithOnSolution(fn func(Solution) Decision) Option {
	return func(c *Config) { c.OnSolution = fn }
}

// WithKeepExitSnapshots captures a final snapshot for every exiting path
// (released via Result.Release).
func WithKeepExitSnapshots() Option { return func(c *Config) { c.KeepExitSnapshots = true } }
