// Package plan implements the simplified query optimization the paper's
// conclusions promise (§4): "query optimization in MM-DBMS should be
// simpler than in conventional database systems, as the cost formulas are
// less complicated... there is a more definite ordering of preference".
//
// Selection: a hash lookup (exact match only) is always faster than a tree
// lookup, which is always faster than a sequential scan.
//
// Join: a precomputed join is always faster than the other methods; a Tree
// Merge join is nearly always preferred when the T Tree indices already
// exist. Otherwise Hash Join, with the two exceptions of §3.3.5: a Tree
// Join when an index exists on the larger (inner) relation and the outer
// is less than half its size, and Sort Merge when the semijoin selectivity
// and duplicate percentage are both high. Non-equijoins use the ordering
// of the data (Tree Join).
//
// Projection: hashing is the dominant duplicate-elimination method.
package plan

// CmpOp is a selection predicate operator.
type CmpOp int

// Predicate operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// AccessPath is a selection strategy.
type AccessPath int

// The three access paths of §4.
const (
	PathHashLookup AccessPath = iota
	PathTreeLookup
	PathTreeRange
	PathSequentialScan
)

// String names the path.
func (p AccessPath) String() string {
	switch p {
	case PathHashLookup:
		return "hash lookup"
	case PathTreeLookup:
		return "tree lookup"
	case PathTreeRange:
		return "tree range scan"
	default:
		return "sequential scan"
	}
}

// SelectionInput describes the available paths for a selection.
type SelectionInput struct {
	Op      CmpOp
	HasHash bool // hash index on the predicate column
	HasTree bool // order-preserving index on the predicate column
}

// ChooseSelection picks the access path by the §4 preference order.
func ChooseSelection(in SelectionInput) AccessPath {
	switch in.Op {
	case Eq:
		if in.HasHash {
			return PathHashLookup // exact match: hash always fastest
		}
		if in.HasTree {
			return PathTreeLookup
		}
	case Lt, Le, Gt, Ge:
		// Range predicates can use the ordering of the data; hash
		// structures are excluded from range queries (§3.2.2).
		if in.HasTree {
			return PathTreeRange
		}
	case Ne:
		// "not equals" cannot make use of ordering (§3.3.5).
	}
	return PathSequentialScan
}

// JoinMethod is a join strategy.
type JoinMethod int

// The join methods of §3.3 plus the precomputed join of §2.1.
const (
	JoinPrecomputed JoinMethod = iota
	JoinTreeMerge
	JoinTree
	JoinHash
	JoinSortMerge
	JoinNestedLoops
	// JoinRadixHash is the cache-conscious upgrade of JoinHash: both
	// sides radix-partitioned on the join-key hash, each partition pair
	// joined through a flat L2-resident open-addressing table. Not part
	// of the paper's §3.3 ordering — the cost-based crossover below
	// decides when the build is large enough for cache effects to
	// dominate.
	JoinRadixHash
)

// String names the method as the paper does.
func (j JoinMethod) String() string {
	switch j {
	case JoinPrecomputed:
		return "precomputed join"
	case JoinTreeMerge:
		return "Tree Merge join"
	case JoinTree:
		return "Tree Join"
	case JoinHash:
		return "Hash Join"
	case JoinSortMerge:
		return "Sort Merge join"
	case JoinRadixHash:
		return "Radix Hash Join"
	default:
		return "nested loops join"
	}
}

// JoinInput describes a candidate equijoin.
type JoinInput struct {
	Equijoin       bool // false for <, <=, >, >= joins
	HasPrecomputed bool // outer carries a tuple-pointer FK to inner
	OuterTree      bool // T Tree exists on the outer join column
	InnerTree      bool // T Tree exists on the inner join column
	InnerHash      bool // hash index exists on the inner join column
	OuterCard      int
	InnerCard      int
	// Statistics for the Sort Merge exception; negative when unknown.
	DuplicatePct float64
	SemijoinPct  float64
	SkewedDups   bool
}

// ChooseJoin picks the join method by the §3.3.5 summary rules.
func ChooseJoin(in JoinInput) JoinMethod {
	if in.HasPrecomputed {
		return JoinPrecomputed
	}
	if !in.Equijoin {
		// Non-equijoins other than "not equals" use the ordering of the
		// data: "the Tree Join should be used for such joins".
		if in.InnerTree {
			return JoinTree
		}
		return JoinNestedLoops
	}
	// Exception (2): both semijoin selectivity and duplicate percentage
	// high — Sort Merge, particularly under a skewed distribution. The
	// crossover thresholds come from Tests 4 and 5: ~60% duplicates
	// (skewed) / ~80% (uniform) when indices would have to be built.
	if in.DuplicatePct >= 0 && in.SemijoinPct >= 80 {
		threshold := 80.0
		if in.SkewedDups {
			threshold = 60.0
		}
		if in.DuplicatePct >= threshold {
			if in.OuterTree && in.InnerTree {
				return JoinTreeMerge // satisfactory and already built
			}
			return JoinSortMerge
		}
	}
	if in.OuterTree && in.InnerTree {
		return JoinTreeMerge
	}
	// An existing hash index on the inner is always at least as good as
	// building one.
	if in.InnerHash {
		return JoinHash
	}
	// Exception (1): an index on the larger (inner) relation and an outer
	// less than half its size — Tree Join beats building a hash table.
	if in.InnerTree && in.OuterCard*2 < in.InnerCard {
		return JoinTree
	}
	return JoinHash
}

// MinRowsPerWorker is the floor under which an operator is not worth
// splitting: below a few thousand rows per worker, goroutine spawn and
// result merging cost more than the work they spread out, and the paper's
// serial algorithms (whose §3.1 counts the experiments reproduce) should
// run untouched.
const MinRowsPerWorker = 2048

// ChooseWorkers resolves the degree of parallelism for an operator over
// the given row count: the requested degree, capped so every worker gets
// at least MinRowsPerWorker rows. requested <= 1 (or any small input)
// yields 1 — the exact serial path.
func ChooseWorkers(requested, rows int) int {
	if requested <= 1 {
		return 1
	}
	maxW := rows / MinRowsPerWorker
	if maxW < 1 {
		return 1
	}
	if requested < maxW {
		return requested
	}
	return maxW
}

// DefaultBatchSize is the tuple-pointer block size batch-at-a-time
// operators move between stages: 256 pointers is 2 KiB on a 64-bit
// layout, small enough to stay L1/L2-resident through an operator's
// inner loop and large enough to amortize per-block dispatch to ~1/256
// of a call per tuple. It matches storage.BatchSize (the arena chunk row
// count), so a temp-list chunk doubles as a scan block.
const DefaultBatchSize = 256

// RadixConfig parameterizes the cache-conscious radix execution paths.
// The zero value means "use the defaults" — every field is normalized
// through withDefaults before use, so callers can set only what they
// care about.
type RadixConfig struct {
	// L2Bytes is the target per-partition working set: the radix plan
	// fans out until one partition's flat build table (16-byte slots at
	// load factor 1/2 → 32 bytes per build row) fits in this budget.
	// Default 256 KiB — a conservative slice of a modern per-core L2.
	L2Bytes int
	// EntryBytes is the in-table footprint per build row used by the
	// sizing model. Default 32 (two 16-byte open-addressing slots).
	EntryBytes int
	// MaxPassBits caps one pass's fan-out so the write-combining
	// staging area and the TLB reach of the scatter stay bounded.
	// Default 8 (256 partitions per pass).
	MaxPassBits uint
	// MaxBits caps the total radix width across passes. Default 14
	// (16384 partitions) — past that, per-partition bookkeeping beats
	// the locality it buys.
	MaxBits uint
	// MinBuildRows is the crossover below which a join builds one
	// unpartitioned table instead: small builds fit in cache anyway.
	// Default 131072 rows (≈ 4 MiB of table).
	MinBuildRows int
}

// Default radix parameters (see RadixConfig field docs).
const (
	DefaultRadixL2Bytes      = 256 << 10
	DefaultRadixEntryBytes   = 32
	DefaultRadixMaxPassBits  = 8
	DefaultRadixMaxBits      = 14
	DefaultRadixMinBuildRows = 128 << 10
)

// withDefaults fills zero fields with the package defaults.
func (c RadixConfig) withDefaults() RadixConfig {
	if c.L2Bytes <= 0 {
		c.L2Bytes = DefaultRadixL2Bytes
	}
	if c.EntryBytes <= 0 {
		c.EntryBytes = DefaultRadixEntryBytes
	}
	if c.MaxPassBits == 0 {
		c.MaxPassBits = DefaultRadixMaxPassBits
	}
	if c.MaxBits == 0 {
		c.MaxBits = DefaultRadixMaxBits
	}
	if c.MaxBits > 16 {
		c.MaxBits = 16 // the kernel's hard MaxBits cap
	}
	if c.MaxPassBits > c.MaxBits {
		c.MaxPassBits = c.MaxBits
	}
	if c.MinBuildRows == 0 {
		c.MinBuildRows = DefaultRadixMinBuildRows
	}
	return c
}

// ChooseRadixBits is the cost-based pass/bit chooser: given the
// estimated build cardinality it returns the per-pass radix widths
// (most significant bits first), or nil when the build is below the
// crossover and one unpartitioned table should be built.
//
// The model: the build table costs EntryBytes per row, so fitting one
// partition in L2Bytes needs a fan-out of buildRows·EntryBytes/L2Bytes,
// i.e. total bits = ceil(log2(that)), clamped to MaxBits. The bits are
// split into ceil(total/MaxPassBits) passes of near-equal width so no
// single scatter fans out past its write-combining budget — each extra
// pass costs one more sequential sweep over the data (RadixPasses ×
// rows extra DataMoves), which is why the splitter uses as few passes
// as the per-pass cap allows.
func ChooseRadixBits(buildRows int, cfg RadixConfig) []uint {
	c := cfg.withDefaults()
	if buildRows < c.MinBuildRows {
		return nil
	}
	return forcedRadixBits(buildRows, c)
}

// ForceRadixBits sizes a radix plan for the given build cardinality
// ignoring the crossover, for callers that run the radix kernels
// directly at any size (the layer benchmarks); the planner itself uses
// ChooseRadixBits. Tiny builds still get a minimal 2-bit plan so the
// plan genuinely partitions.
func ForceRadixBits(buildRows int, cfg RadixConfig) []uint {
	return forcedRadixBits(buildRows, cfg.withDefaults())
}

func forcedRadixBits(buildRows int, c RadixConfig) []uint {
	need := 1
	if buildRows > 0 {
		// ceil(buildRows·EntryBytes / L2Bytes)
		need = (buildRows*c.EntryBytes + c.L2Bytes - 1) / c.L2Bytes
	}
	var total uint
	for 1<<total < need {
		total++
	}
	if total < 2 {
		total = 2
	}
	if total > c.MaxBits {
		total = c.MaxBits
	}
	passes := (total + c.MaxPassBits - 1) / c.MaxPassBits
	bits := make([]uint, 0, passes)
	for p := uint(0); p < passes; p++ {
		// Near-equal split, wider passes first.
		b := (total + passes - p - 1) / (passes - p)
		bits = append(bits, b)
		total -= b
	}
	return bits
}

// Budget-clamped planning. When a memory grant is in force the radix
// fanout cannot be chosen from cache geometry alone: every unit of
// fanout costs write-combining staging on both sides of the join
// (WCBlock entries × 16 bytes × 2 sides = 2 KiB per partition held hot
// through the whole scatter), and a query squeezed to a small grant
// must not burn it on scatter scratch that the build tables then starve
// for. The clamp bounds the staging to a fraction of the budget and
// lets the dynamic defenses (recursive repartitioning, role reversal)
// fix up the fat partitions a narrow plan produces — bounded scratch
// traded for extra passes over only the partitions that need them,
// which is the Jahangiri/Carey/Freytag degradation order.

// budgetStagingDivisor is the fraction of the grant the scatter's
// write-combining staging may occupy: 1/8, leaving the rest for build
// tables and result buffers.
const budgetStagingDivisor = 8

// stagingBytesPerPartition is the two-sided write-combining cost of one
// unit of fanout: WCBlock (64) staged 16-byte entries per side.
const stagingBytesPerPartition = 2 * 64 * 16

// budgetMaxBits returns the widest total radix width whose staging fits
// budget/budgetStagingDivisor, floored at 2 bits (below that the plan
// is not a partitioning plan at all — the dynamic defenses need some
// fanout to work with).
func budgetMaxBits(budget int64) uint {
	allow := budget / budgetStagingDivisor / stagingBytesPerPartition
	var total uint
	for total < MaxRadixHardBits && int64(1)<<(total+1) <= allow {
		total++
	}
	if total < 2 {
		total = 2
	}
	return total
}

// MaxRadixHardBits mirrors the kernel's hard fanout cap.
const MaxRadixHardBits = 16

// ClampRadixBits narrows an existing radix plan to the widest total
// width whose scatter staging fits budget/8, re-splitting the clamped
// width into passes under the config's per-pass cap. It reports whether
// the plan actually narrowed — true is the signal query tracing audits as
// a budget-forced decision. nil plans and budget <= 0 (unbudgeted) pass
// through untouched.
func ClampRadixBits(bits []uint, cfg RadixConfig, budget int64) ([]uint, bool) {
	if budget <= 0 || bits == nil {
		return bits, false
	}
	maxTotal := budgetMaxBits(budget)
	var total uint
	for _, b := range bits {
		total += b
	}
	if total <= maxTotal {
		return bits, false
	}
	return splitPasses(maxTotal, cfg.withDefaults().MaxPassBits), true
}

// splitPasses splits total bits into near-equal passes of at most
// maxPassBits each, wider passes first (the forcedRadixBits rule).
func splitPasses(total, maxPassBits uint) []uint {
	passes := (total + maxPassBits - 1) / maxPassBits
	bits := make([]uint, 0, passes)
	for p := uint(0); p < passes; p++ {
		b := (total + passes - p - 1) / (passes - p)
		bits = append(bits, b)
		total -= b
	}
	return bits
}

// SortMethod is the substrate of ORDER BY's full sort (exec.OrderRows),
// which ChooseSortMethod picks from the input size. The §3.4 Sort Scan
// and the Sort Merge join's array builds always run SortQuick.
type SortMethod int

const (
	// SortQuick is the paper-faithful §3.1 comparator quicksort with the
	// insertion-sort cutoff — the zero value, so every path that does not
	// opt in keeps the exact algorithm (and §3.1 operation counts) the
	// paper measured.
	SortQuick SortMethod = iota
	// SortRadixKey is the cache-conscious upgrade: encode each sort key
	// into a fixed-width order-preserving binary prefix (internal/sortkey)
	// and MSD-radix-sort the (prefix, pointer) pairs through write-
	// combining scatter buffers, falling back to comparator sorting on
	// short runs and equal-prefix ties. Same output order, different
	// work: sequential byte scatter instead of N·log N indirect
	// comparator calls.
	SortRadixKey
)

// String names the sort method.
func (s SortMethod) String() string {
	switch s {
	case SortRadixKey:
		return "radix-key sort"
	default:
		return "quicksort"
	}
}

// SortConfig parameterizes the sort-method crossover. The zero value
// means "all defaults"; it is passed through withDefaults before use.
type SortConfig struct {
	// MinRows is the input cardinality below which the comparator
	// quicksort runs: small sorts are cache-resident either way, the
	// radix kernel's key-encoding sweep and 256-bucket scatter setup
	// don't pay for themselves, and — deliberately — the paper-scale
	// exhibits (≤30k tuples) stay on the faithful §3.1 algorithm.
	// Default 65536 rows.
	MinRows int
}

// Sort-crossover constants. DefaultSortPrefixBytes is the decisive-prefix
// width the crossover assumes — sortkey.PrefixBytes, the width the kernel
// orders by: keys wider than it (composite keys, long strings) pay
// comparator tie-breaks on equal prefixes, so the crossover doubles.
const (
	DefaultSortMinRows     = 64 << 10
	DefaultSortPrefixBytes = 8
)

func (c SortConfig) withDefaults() SortConfig {
	if c.MinRows == 0 {
		c.MinRows = DefaultSortMinRows
	}
	return c
}

// ChooseSortMethod picks the sort substrate for a sort of rows elements
// whose encoded keys are keyBytes wide (8 for every fixed-width single
// column; larger for composite keys and the crossover treats them as
// tie-break-heavy). The model mirrors ChooseRadixBits: below the
// crossover the comparator quicksort is cache-resident and unbeatable,
// above it the radix kernel's ~1 scatter pass per populated prefix byte
// replaces N·log N indirect comparator calls. Paper-scale inputs (the
// exhibits top out at 30k tuples) always land on SortQuick, keeping the
// faithful §3.1 path byte-identical.
func ChooseSortMethod(rows, keyBytes int, cfg SortConfig) SortMethod {
	c := cfg.withDefaults()
	min := c.MinRows
	if keyBytes > DefaultSortPrefixBytes {
		// Wide keys tie-break through the comparator on every equal
		// prefix; demand a bigger input before switching.
		min *= 2
	}
	if rows < min {
		return SortQuick
	}
	return SortRadixKey
}

// ChooseBatchSize resolves the effective block size for a query over
// rows input rows: DefaultBatchSize, shrunk to the input size for tiny
// inputs so a two-row query does not carry a 256-slot block around. The
// resolved size is a planning/accounting figure — pooled blocks are
// physically DefaultBatchSize and operators simply stop filling them
// early — so EXPLAIN ANALYZE can report the block size a query ran with.
func ChooseBatchSize(rows int) int {
	if rows > 0 && rows < DefaultBatchSize {
		return rows
	}
	return DefaultBatchSize
}
