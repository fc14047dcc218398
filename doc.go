// Package anomalia characterizes anomalies in large-scale monitored
// systems: given two successive snapshots of per-device quality-of-service
// measurements and the set of devices whose trajectories look abnormal, it
// decides — for each abnormal device, using only that device's 4r
// neighbourhood — whether the underlying error was massive (hit more than
// τ devices, e.g. a network outage) or isolated (hit at most τ, e.g. a
// broken home gateway), or whether the configuration is provably
// unresolvable even for an omniscient observer.
//
// It is a from-scratch reproduction of "Anomaly Characterization in Large
// Scale Networks" (Anceaume, Busnel, Le Merrer, Ludinard, Marchand,
// Sericola — IEEE/IFIP DSN 2014), including the impossibility result
// (unresolved configurations), the local decision procedures of Theorems
// 5-7 and Corollary 8, the parameter-dimensioning analysis, the error
// detectors the paper references, the related-work baselines, and the full
// evaluation harness regenerating every table and figure.
//
// # Quick start
//
//	prev := [][]float64{{0.95}, {0.94}, {0.95}, {0.96}, {0.95}}
//	cur := [][]float64{{0.55}, {0.54}, {0.56}, {0.55}, {0.20}}
//	out, err := anomalia.Characterize(prev, cur, []int{0, 1, 2, 3, 4},
//		anomalia.WithRadius(0.03), anomalia.WithTau(3))
//	// devices 0-3 moved together -> massive; device 4 alone -> isolated.
//
// For streaming deployments, Monitor couples the characterizer with
// per-service error-detection functions (threshold, EWMA, CUSUM,
// Holt-Winters, Kalman, Shewhart) so that raw QoS samples go in and
// verdicts come out; see NewMonitor.
//
// Parameter selection (the consistency radius r and density threshold τ)
// follows Section VII-A of the paper via TuneTau and TuneRadius.
//
// # Distributed deployment
//
// The paper's scaling claim is that no omniscient monitor is needed:
// every abnormal device can reach the omniscient verdict from the
// trajectories within uniform-norm distance 4r of its own, fetched from
// a directory service. WithDistributed enables that deployment model:
// the window's abnormal trajectories are indexed in a sharded,
// read-only directory (grid cells of side 2r, one candidate block per
// cell so co-located devices share neighbourhood fetches) and each
// abnormal device characterizes itself on its fetched 4r view. Verdicts are
// provably identical to the in-process path; Outcome.Dist reports the
// directory traffic — messages, trajectories shipped, and view sizes —
// the quantities the DistCost study of cmd/anomalia-experiments bills
// and cmd/anomalia-gateway's -distributed flag exercises on live
// streams. The directory's cells come from the same shared spatial
// index (internal/grid) that builds the motion graph, so the two
// deployments agree on geometry by construction.
//
// The Monitor indexes each abnormal window in a fresh directory. The
// detection function a_k(j) flags a change between windows k-1 and k,
// so the abnormal set is transient: consecutive abnormal sets barely
// overlap, and an index kept from the previous window would have to be
// rebuilt anyway. The build reads only the window's abnormal rows at
// k-1, so its cost follows the abnormal set, not the fleet.
//
// # Networked deployment
//
// WithDirectory moves the directory service out of the Monitor's
// process: cmd/anomalia-directory hosts the shards behind a
// length-prefixed binary wire protocol (internal/dirnet — a uint32
// frame length, a message byte, and sparse trajectory bodies carrying
// only the abnormal rows, bit-exact), and the Monitor decides each
// abnormal window through a thin client. Each window is one request
// and one response per shard: the client partitions the window's
// decisions contiguously across the shards in rotation and sends each
// the abnormal set with its trajectories and the slice it decides. A
// shard builds that window from scratch on m-row states over
// window-local ids, decides its slice, maps ids back to global ones
// only in its response, and keeps nothing once it has answered, so a
// shard's memory follows the abnormal set, not the fleet, and a shard
// that crashes and comes back just serves the next window. A decision
// response carries the window's motion table too: each distinct dense
// motion once, and per decision only refs into it, so a mass event's
// motion crosses the wire once per shard slice, not once per member.
// Each shard decides its
// contiguous slice with dist.DecideRange, the same view-grouped batch
// the in-process directory runs (DecideAll is its whole-window case):
// devices sharing a 4r view share one characterizer, so a mass event
// is enumerated once per shard, not once per device, and a networked
// window costs the in-process decision plus the wire.
//
// Every request carries a deadline (DirectoryConfig.RequestTimeout);
// a transport failure is retried up to MaxRetries times with
// exponential backoff and full jitter (BackoffBase/BackoffCap,
// deterministic under Seed), and BreakerFails consecutive failures
// open a per-shard circuit breaker that stops the client hammering a
// dead shard — after BreakerCooldown abnormal windows the breaker
// half-opens, and its one-attempt slice either rejoins the shard or
// re-opens the breaker, handing the slice to a shard that answered. Server-side application errors (a malformed request, a
// characterization failure) are returned as errors, never retried and
// never charged to the breaker: retrying cannot fix them and they say
// nothing about shard health.
//
// The degradation contract is the paper's own oracle: a window the
// wire cannot serve within its deadline budget falls back to
// centralized characterization in-process, so Observe never errors on
// shard unavailability and the verdicts are identical either way —
// only Outcome.Dist (present iff the window was decided by the
// directory) and the Monitor.DirStats ledger (windows networked vs
// degraded, retries, breaker opens, shard rejoins, bytes and
// round-trips on the wire) tell the paths apart. A 220-tick soak
// drives the full stack through seeded wire weather — latency,
// dropped windows, shard crashes and restarts, partitions, and a
// full-fleet blackout — from
// internal/netsim's wire-fault injector, pinning every networked
// window byte-identical to the in-process distributed outcome and
// every degraded window byte-identical to the centralized one, under
// the race detector. cmd/anomalia-gateway's -directory flag runs the
// same client on live streams, and the DistCost study reports the
// measured wire bytes, round-trips and retries per abnormal window
// next to the paper's billed message economy.
//
// # Ingestion
//
// The paper's detection layer (Section III-A) is a per-device local
// test: device j's error-detection function looks only at j's own QoS
// samples. Monitor.Observe exploits that independence — every pass over
// the fleet is sharded across WithIngestWorkers goroutines (default
// GOMAXPROCS) over contiguous device ranges, with per-shard abnormal-id
// buffers concatenated in shard order, so the abnormal set handed to
// characterization is byte-identical to a serial walk whatever the
// worker count (pinned by a parity suite run under the race detector).
// Each row is graded clean or not by one grader — present, the fleet's
// one width (every device is built services wide), and finite by a
// sum of v−v, which is NaN exactly when a value is not, since
// v < 0 || v > 1 is false for NaN — before any detector state it would
// feed is committed. Observe is ObservePartial behind a reject rule:
// it grades the whole snapshot before its pass writes anything (each
// shard grades its rows, then waits for the others) and rejects it on
// the lowest unclean row, so a rejected snapshot leaves the monitor
// exactly as it was: positions, clock, detectors and health. An
// accepted snapshot is consumed exactly as ObservePartial consumes it,
// health transitions included; ObservePartial never rejects a row and
// hands its faults to the health state machine instead (see Degraded
// operation). An error after acceptance (e.g. an exact-search budget)
// reports a consumed observation whose clock and positions advanced
// coherently.
//
// The Monitor holds one n×d position slab, written in place: device
// j's slot holds its committed position S_{k−1}(j) as tick k starts
// and S_k(j) when it ends. Its retained footprint is that slab plus
// the per-device health bytes, once a partial tick has built the
// tracker: at d = 2, 16 + 6 bytes per device, 22.0 B/device measured
// at n = 1M (BenchmarkMonitorFootprint, which CI bounds at 24; it read
// 41.1 while the Monitor kept a second n×d state, a per-row clean mask,
// the trained bytes after every device was trained and flag buffers
// sized to an eighth of each shard). A held device keeps its slot, a
// parked one keeps its slot too (the origin until the first tick), and
// Reset clears the slab. Detecting on a row reads the device's
// committed position from the slot it then overwrites, so a row is
// written only after every value in it has passed. For each flagged
// device the pass copies the slot before and after the write into its
// shard's window buffer, and the buffers merge in shard order, so the
// detector pass hands back the abnormal ids with their compact rows at
// k−1 and k. Every decision path — centralized, in-process directory,
// networked directory and its degraded fallback — runs unchanged on a
// compact m-row state pair over window-local ids 0..m−1, which the
// paper permits: characterization reads only the trajectories of the
// abnormal set, and every tie-break orders devices by id, an order the
// increasing local-to-fleet table keeps. The table is applied once, as
// the Outcome is built: each Report's device and each distinct dense
// motion, renamed in place and keyed by slice identity, and a
// characterization error's device.
//
// A report is clamped into [0,1]^d once, at ingest, and every consumer
// — the device's detectors, the window's positions, the wire — sees
// that clamped value: a custom Detector's Update receives it too, and
// a held device repeats exactly the value its detectors last consumed,
// so holding never flags it. cmd/anomalia-gateway still drops a row
// with a value outside [0,1] as a fault before the Monitor sees it;
// the clamp governs callers that feed the Monitor directly.
//
// The default detectors — the factory's untrained Threshold detectors,
// all with one delta — run as a column bank that keeps no state per
// device at all. A Threshold detector's previous sample is its
// device's committed position, and its first-sample rule is the
// health tracker's last-known mark: a device is trained once a tick
// has consumed its report, which marks it, and a Monitor fed only
// through Observe, which has no tracker, counts every device trained
// once a tick has committed. So one fused pass per shard grades each
// row, tests its jump against the committed position and clamps it
// over that position. The pass is one kernel for every d over the
// shard's range of the slab as flat coordinates, and no width gets a
// loop of its own. Its tight loop takes the common row: d wide, every value's
// bits at most those of 1.0 — one integer compare per value, true
// exactly for +0 through 1, so the clamp is the identity — from a
// live, marked device, and every value within delta of the committed
// one (|x − p| > delta flags). Once every value has passed it copies
// the row over the position without calling the health tracker or
// reading its fields: the tracker hands each shard its state bytes, or
// none while the fleet is all live, and its last-known marks, or none
// once every device has one. The first row the loop does not take — a
// jump, a fault, −0, a value out of range, an impaired or unmarked
// device — runs the general path alone: the row is graded; the
// device's mark is read before its health transition picks what it
// detects on, since the transition marks a device it consumes and a
// first sample only trains; only then is the clamped row written,
// flagged when the device was marked and its largest clamped jump
// exceeds delta. Then the loop resumes. The quiet n = 1M, d = 2
// strict tick (BenchmarkTickIngestDetect1M), whose grading phase
// reads every row once more, and the quiet partial tick, which grades
// each row inside the one pass, are timed in
// scripts/benchgate/testdata/bench.txt. Every tick is that one pass.
// Once the Monitor has a health tracker, each device's health
// transition runs inside it on every accepted tick, strict or
// partial, between the classification and the detector test, and
// picks what the device detects on — its own report, its held
// position, or nothing — with each shard's counter changes folded into
// the tracker after the pass. A Monitor fed only through Observe
// builds no tracker: its fleet is all live, where the tracker's rule
// is to consume every clean row. Any other factory output — another
// detector family, mixed deltas, a pre-trained or custom detector —
// runs a per-device bank under the same Step contract: a heap Device
// per device, and the same one sharded pass, which classifies each
// row, runs its health transition and feeds the picked row to the
// device's detectors with one interface call per service. A
// differential fuzz target pins the two banks to the same outcomes,
// errors, states and health.
//
// Feeding snapshots in, cmd/anomalia-gateway reads either CSV (one row
// per discrete time, parsed into reused buffers) or the binary stream
// of internal/snapio: per frame, a little-endian uint32 value count
// followed by that many float64 bit patterns, device-major. A binary
// tick decodes with one copy, straight from the read buffer into the
// bytes of the reused value slab, and no per-tick allocation —
// several times the CSV rate at large n (BenchmarkIngest) — and
// -convert bridges existing CSV archives to it. cmd/anomalia-sim
// -emit generates either format from the Section VII-A workload, so
// the two binaries compose into an end-to-end pipeline. CI gates the
// n = 1M streaming tick (classify, clamp and detect a million devices,
// characterize the window's mass event) against the bare
// characterization of the same window, the quiet tick's allocations,
// the quiet Threshold-bank tick against the same tick on the
// per-device bank, and a lossy partial tick against the quiet one.
//
// Verdicts leave as JSON window records (Outcome.MarshalJSON, one per
// anomalous window under anomalia-gateway -json). Each distinct dense
// motion is written once, in a window-level "motions" table, and each
// report names its motions by index in "motion_refs", so the record
// grows with the window's distinct motions, not with the members of
// each mass event. The table lists motions in first-appearance order
// and is built by content — slice identity, which the characterizer's
// shared families provide, is only a shortcut — so the bytes depend
// only on the Outcome's value, whichever decision path produced it.
// Outcome.AppendJSON writes the record into a caller's buffer without
// encoding/json, byte for byte what the reflection encoder writes for
// the record's layout; MarshalJSON wraps it, and the gateway appends
// each whole -json line into one reused buffer. Outcome.UnmarshalJSON
// rebuilds DenseMotions from the table and rejects a reference outside
// it with ErrInvalidInput.
//
// # Degraded operation
//
// A million-device deployment never delivers a perfect snapshot: reports
// go missing, arrive truncated, or carry garbage. The paper's model
// assumes each monitored device reports every discrete time; the
// implementation keeps that model honest by reconciling the imperfect
// stream to it explicitly instead of dying on the first bad frame.
//
// Monitor.ObservePartial accepts snapshots in which a device's row may
// be nil (no report) or malformed (wrong width, non-finite values) and
// drives a per-device health state machine (see WithHealthPolicy): a
// live device whose report goes bad turns stale and has its last-known
// value held for up to HoldTicks consecutive faulty ticks — brief
// delivery hiccups don't perturb detection — after which it is
// quarantined: excluded from the window's population entirely, so its
// silence is never mistaken for motion, until ReadmitTicks consecutive
// clean reports re-admit it. Detection and characterization then run
// over the live subset, and the verdicts are exactly the omniscient
// verdicts on that subset: a soak suite pins a degraded monitor
// tick-for-tick against an oracle fed the clean values masked by the
// delivered set, centralized and distributed, under the race detector.
// Monitor.DeviceHealth and Monitor.HealthStats expose the per-device
// state and the fleet split with its lifetime quarantine/re-admission
// counters. The health layer rides the detector pass, so it adds no
// pass over the fleet: the quiet n = 1M ObservePartial tick matches
// the plain quiet tick's allocations and, since the plain strict tick
// grades every row once more, stays within 0.8x of its latency
// (BenchmarkTickObservePartial1M), and a tick that loses 1% of the
// reports over an impaired fleet within 0.95x
// (BenchmarkTickObservePartialLossy1M; both gated in CI, and a second
// pass over the fleet trips both).
//
// cmd/anomalia-gateway applies the same discipline to the wire: by
// default a malformed CSV cell or binary value quarantines the
// offending device for that tick — counted, and diagnosed with the
// line and column (CSV) or frame index and byte offset (binary) — and
// the stream keeps flowing; a whole-tick loss (a CSV record that does
// not parse) degrades that tick; -maxbad consecutive fully-lost ticks
// abort the run (a wedged source should fail loudly, not hold the
// last value forever); -strict restores fail-fast on the first fault.
// Binary framing damage (a torn length prefix or truncated frame
// body) is fatal in both modes — a length-prefixed stream cannot
// resync — with the frame index and byte offset in the error
// (internal/snapio positions every decode error; its reader is
// fuzzed: no panic, no geometry-escaping allocation, truncation at
// every byte boundary distinguished from clean end of stream).
//
// The fault model is reproducible: internal/netsim.Injector degrades a
// simulated network's delivery with seeded per-report drop and
// corruption probabilities plus scheduled burst outages over device
// and tick ranges, and cmd/anomalia-sim -emit exposes it (-drop,
// -corrupt, -outages, -faultseed, -truncate) so a degraded wire
// fixture — empty CSV cells and NaN binary values for lost reports, a
// truncated final frame for framing damage — reproduces end to end
// with one seed.
//
// # Performance
//
// The paper's locality result — every decision needs only the
// 4r-neighbourhood — is matched by the implementation's data
// structures, so the window pipeline costs O(m * density), not O(m^2),
// in the abnormal-set size m:
//
//   - Motion-graph construction buckets the abnormal devices into a
//     shared grid of cells with side 2r (internal/grid) and only
//     considers candidate pairs from nearby cells. Every build tests
//     against one flattened copy of the window's positions, with
//     per-axis early exit. By Definition 1 a set is r-consistent
//     exactly when it fits a box of side 2r, so when the members of
//     two cells fit one such box at both times the whole block is an
//     r-consistent motion: the build ORs a word mask of one cell into
//     each row of the other instead of testing the pairs. The box test
//     is exact in floating point (rounded subtraction is monotone), and
//     blocks that fail it fall back to per-pair tests. An R2 mass
//     event is built to pass it, so a clustered window costs
//     O(cells + rows·words), not O(pairs). Every build is
//     property-tested identical to the all-pairs scan, including boxes
//     one ulp over 2r at either time.
//   - The grid index itself is map-free and slab-allocated: cell
//     coordinates pack into fixed-width keys, the devices are sorted by
//     key (key computation and the sort itself sharded across
//     GOMAXPROCS workers, with a deterministic pairwise merge so the
//     index is byte-identical for any worker count), and the
//     whole index materializes as one key-sorted cell slab plus shared
//     id/coordinate/key arenas — a handful of allocations however many
//     cells a window occupies, with lookups served by binary search.
//   - Adjacency is stored one connected component at a time. Every
//     window runs the same collect pass — the cell-pair walk, sharded
//     across GOMAXPROCS workers from ~4k vertices, into per-worker edge
//     and block buffers that start small and grow with the edges found
//     — then a union-find over the blocks and edges labels the
//     components, numbered by smallest member. A component of up to
//     4,096 devices, or a larger one so edge-dense that neighbour lists
//     would be no smaller, gets a dense bitset block over its ranks;
//     all blocks share one words slab of Σ s·ceil(s/64) words instead
//     of an m·ceil(m/64) window matrix (a storm window of six
//     500-device clusters: 0.19 MB of blocks against 1.1 MB). Any other
//     component keeps sorted neighbour-rank lists in one shared CSR
//     arena (2 allocations however many edges), filled by a
//     count/prefix-sum/fill/sort pass, so memory is O(m + edges) and a
//     million-device window builds at all.
//   - Clique enumeration runs on a component's block in place: the
//     rows are viewed, not copied, and Bron-Kerbosch bounds its Tomita
//     pivot scan — it stops at the first vertex adjacent to all other
//     candidates, since none can do better, and takes that vertex's
//     single branch in place. An s-clique then costs s intersection
//     counts instead of O(s^2). This is the only clique search: the
//     Theorem 7 search tests relation (4) on j's dense family W̄_k(j)
//     (some member keeps more than τ devices outside the candidate
//     collection), and the partition oracle's C1 check asks the same of
//     the window's maximal motions.
//   - Clique enumeration over a CSR component never widens to the
//     component: each vertex's neighbourhood is densified into a
//     Δ-sized subgraph, with Δ the maximum degree, so enumeration
//     scratch is O(Δ^2/64) bits from the enumeration scratch pool, and
//     results are property-tested identical to dense blocks.
//   - Characterization is component-local and decides once per dense
//     family. The motion graph is decomposed into connected components
//     once per window, and every rule of Theorems 5-7 is local to a
//     component — a maximal motion is a clique, D_k(j) unions motions
//     containing j, and J_k/L_k split D_k(j), so none of them crosses a
//     component boundary. Maximal motions are enumerated once per
//     component — a single Bron-Kerbosch on the component's dense
//     block, or the Δ-bounded anchored per-vertex enumeration on a CSR
//     component. The same
//     pass interns the component's distinct families W̄_k: since W̄_k(ℓ)
//     is exactly the set of maximal dense motions containing ℓ,
//     ℓ ∈ J_k(j) iff W̄_k(ℓ) ⊆ W̄_k(j), so D_k, the J_k/L_k split and
//     Theorems 5 and 6 depend on j only through its family and are
//     decided once per family, with word-parallel algebra over
//     O(|C|/64) words for a |C|-member component. Every member of an R2
//     mass event shares one family, so a cluster costs one split, not
//     one per member, and its members' Results share the family's
//     Dense, J and L slices read-only. Only the exact Theorem 7 /
//     Corollary 8 search runs per device. CI gates the m = 50k
//     all-abnormal fleet characterization. A metamorphic suite and a
//     fuzz target pin the locality: deciding each component as a
//     window of its own gives byte-identical verdicts, sets and cost
//     counters to the whole window, across placement families,
//     adjacency representations and exact modes; a transcription of
//     the earlier per-neighbour split pins the family path to it.
//   - A window allocates little beyond the Outcome it returns. The
//     Monitor characterizes each abnormal device straight into the
//     Outcome's Reports and sizes the M_k / I_k / U_k lists once. The
//     working memory a window is decided in has one owner, which
//     refills it in place window after window: the Monitor owns its
//     characterizer (with the motion graph, build memory and grid index
//     it refills), its in-process directory, and its decide memory with
//     one characterizer per view-group worker; a directory server
//     connection owns its decoded request, directory, decide memory and
//     motion table; the directory client owns the slice it decodes
//     decisions into. Callers without an owner — Characterize,
//     core.New, motion.NewGraph, dist.NewDirectory, DecideAll — get
//     fresh memory through the same code, so DecideAll stays safe to
//     call concurrently on one directory. Only the clique enumeration
//     scratch (any number of enumerations may read one graph at once)
//     and the JSON record scratch (MarshalJSON runs on any goroutine)
//     come from sync.Pools. Owned memory keeps its high-water mark
//     under one fixed rule (internal/slab): memory more than 4x the
//     current need and larger than 256 KB is dropped. Per-worker
//     memory (detector windows, edge chunks) is budgeted as one, so a
//     huge mass window does not stay resident in a gateway whatever
//     GOMAXPROCS is (TestMonitorShedsLargeWindow). The rule runs at an
//     owner's next refill: an owner that goes idle — a Monitor after
//     its last abnormal window, a directory connection after its last
//     request, a view-group characterizer its window did not need —
//     keeps what its last window used. An owner holds no pointer
//     into a returned Outcome, and nothing an Outcome, a core.Result
//     or a decoded wire motion holds is reused
//     (TestOutcomeOwnsItsMemory; FuzzServerRespond and the motion-graph
//     and characterization fuzz targets decide every input again on
//     memory a larger window left). BenchmarkCentralDecide's storm
//     window allocates ~0.45 MB, 0.39 MB of it the []Result that
//     CharacterizeAll returns and the Monitor does not build, and
//     BenchmarkDistDecide's ~66 KB in ~225 allocations. The Monitor
//     detects in place over its one position slab and reuses its
//     abnormal window — ids, compact rows and local ids — and the
//     detector pass its per-shard window buffers, under the same rule,
//     so a quiet tick allocates nothing per device
//     (BenchmarkTickIngestDetect1M).
//   - The default Threshold detectors are a column bank, not 2M heap
//     detectors behind 1M Devices: a detector's previous sample is its
//     device's position in the Monitor's committed state, so the bank
//     keeps no sample of its own, nor any other state per device — the
//     first-sample rule is the health tracker's last-known mark — and
//     NewMonitor builds it directly without building the detectors
//     it stands for. A quiet n = 1M tick is one fused pass with no
//     interface call: CI holds it under 0.6x the same tick on the
//     per-device bank (BenchmarkTickIngestDetectGeneric1M), which
//     updates heap detectors one at a time. A lossy partial tick is the
//     same one pass on either bank: the health transition runs per
//     device inside it and writes only that device's slots, so the
//     shards need no lock, and per-worker counter deltas are applied
//     once after it.
//   - A binary frame is decoded by reading its body straight into the
//     bytes of the reader's float64 slab through an unsafe view — one
//     copy out of the read buffer, no per-value conversion on a
//     little-endian host (a big-endian one byte-swaps in place).
//   - The distributed directory rides the same flat index: occupied
//     cells live in the index's key-sorted slab annotated with their
//     owning shard and their members' bounding box at k-1 and k, and
//     a directory is read-only once built. A cell's block applies the
//     motion graph's box test at view scale. Against the cell's member
//     box, a candidate within 4r of both corners on every axis at both
//     times is accepted: it is in every member's view. One
//     more than 4r beyond the box at either time is rejected: it is in
//     no member's view. Whole neighbour cells are placed by their own
//     boxes first, so a mass event's cells are accepted or rejected
//     without visiting their members. Only the remainder is tested per
//     device, on flat coordinates, and the surviving sorted cell lists
//     merge into the block without a sort. The tests are exact for the
//     same monotonicity reason, and are property-tested against
//     brute-force views, with fixtures exactly 4r and one ulp beyond
//     from a box corner. The batched DecideRange — DecideAll's whole
//     window, or one networked shard's slice — builds the blocks of
//     its range's cells in parallel, into a slab of its decide memory. A cell
//     with no remainder gives all its members the block's accepted
//     slice as their view, so it is grouped once, not once per device,
//     and equal views still share one characterizer
//     wherever they sit. CI holds the storm-shaped window's distributed
//     decision under 2x the centralized one (BenchmarkDistDecide and
//     BenchmarkCentralDecide, storm/m=3000).
//   - Over the networked directory, a decision response lists each
//     distinct dense motion once, in a per-response table mapped to
//     global ids once per motion, and each decision names its motions
//     by u32 refs. The client checks each table motion once and hands a
//     family's members one shared dense slice over the table, so its
//     decode allocates per distinct motion, not per member, and the
//     window record's identity lookup hits for every networked report.
//     CI holds the wire window's allocated bytes under 2x the
//     in-process batch on the same window (scripts/benchgate, the
//     BenchmarkDecideWindow wire and inproc pair in internal/dirnet);
//     it reads ~1.5x, both sides deciding in memory they own.
//   - Every parallel pass — the detector pass, the grid's key passes
//     and sort, the collected graph build and the directory's per-view
//     decisions — fans out through one internal helper (internal/par).
//     Range passes cut contiguous ranges of at least a per-pass grain
//     and merge per-worker buffers in worker order, so their output is
//     the same for every worker count; passes over items of uneven
//     cost, such as view groups, claim items from a shared counter.
//     A range pass shorter than twice its grain runs inline on the
//     calling goroutine, and a pool never starts more goroutines than
//     it has items.
//
// The benchmark module under benchmark/ measures the system end to end
// and layer by layer: bash benchmark/run.sh drives four gateway-stream
// workloads and reports tick latency, throughput, allocation and live
// heap, and its -compare mode turns the saved runs of two commits into
// per-metric verdicts built on medians and quartiles, against the
// bounds in BENCHMARK.json. CI runs scripts/benchgate, whose gate table
// bounds the allocations, allocated bytes and latency of the hot-path
// benchmarks. Separate CI steps repeat the seeded fault-injection and
// wire-fault soaks under the race detector.
//
// # Observability
//
// WithMetrics(reg) instruments a Monitor against an
// internal/metrics.Registry: every committed tick records a handful of
// atomic stores — no allocation, no lock, no runtime read —
// and the registry renders
// the Prometheus text format (version 0.0.4) via reg.Handler() or
// reg.WritePrometheus. anomalia-gateway and anomalia-directory expose
// it with -metrics addr (scrape endpoint /metrics); anomalia-sim
// -soak N runs N windows against an instrumented monitor and emits a
// JSON latency report (p50/p99/p999 tick seconds, alloc drift) that
// -slo p99=DUR turns into an exit-code gate.
//
// The Monitor records the tick-local families on every tick. The
// health and wire families are filled from the HealthStats and DirStats
// snapshots, and the runtime sample is read, when the registry is
// scraped:
//
//   - anomalia_ticks_total — snapshots observed (counter)
//   - anomalia_tick_seconds — latency histogram by phase label:
//     detect (the sharded detector pass), characterize (abnormal
//     windows only), total. Whatever the factory, the bank's pass
//     classifies each row and runs its health transition as it
//     detects, so every tick, strict or partial, records the whole
//     pass as detect.
//   - anomalia_abnormal_windows_total — windows with a non-empty
//     abnormal set (counter)
//   - anomalia_abnormal_devices — abnormal-set size histogram
//   - anomalia_abnormal_churn_ratio — symmetric-difference churn of
//     consecutive abnormal sets over their union (gauge)
//   - anomalia_directory_builds_total — in-process directory builds,
//     one per abnormal window the in-process directory decides
//     (counter)
//   - anomalia_health_devices{state=live|stale|quarantined} — the
//     population split (gauges), plus the lifetime counters
//     anomalia_health_quarantines_total,
//     anomalia_health_readmissions_total,
//     anomalia_health_held_ticks_total,
//     anomalia_health_dropped_reports_total,
//     anomalia_health_faulty_ticks_total
//   - anomalia_dir_windows_total{outcome=networked|degraded},
//     anomalia_dir_retries_total, anomalia_dir_failures_total,
//     anomalia_dir_breaker_opens_total, anomalia_dir_rejoins_total,
//     anomalia_dir_bytes_total{direction=sent|received},
//     anomalia_dir_round_trips_total — the networked-directory wire
//     ledger (DirStats as counters)
//   - anomalia_go_heap_alloc_bytes, anomalia_go_alloc_bytes_total,
//     anomalia_go_mallocs_total, anomalia_go_gc_cycles_total,
//     anomalia_go_gc_pause_ns_total — a runtime sample taken on scrape
//     through runtime/metrics, which does not stop the world. The
//     runtime keeps GC pauses only as a histogram, so the pause counter
//     sums each bucket's count at the bucket's lower edge: a lower
//     bound on the total pause that never decreases.
//
// The binaries add their own families on the same registry:
// anomalia-gateway counts ingested frames
// (anomalia_gateway_snapshots_total,
// anomalia_gateway_recovered_errors_total), and anomalia-directory
// counts wire service (anomalia_dirsrv_connections_total,
// anomalia_dirsrv_requests_total, one per window a shard serves,
// anomalia_dirsrv_request_errors_total and
// anomalia_dirsrv_bytes_total{direction=read|written}) with the same
// runtime sample refreshed on scrape. A doc-sync test pins every
// family a Monitor registers against this section; the stats snapshots
// (Time, DeviceHealth, HealthStats, DirStats) and a registry scrape
// are the one part of the Monitor API that is safe to call
// concurrently with Observe/ObservePartial.
package anomalia
