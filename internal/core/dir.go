package core

import (
	"fmt"
	"math/bits"

	"protozoa/internal/directory"
	"protozoa/internal/engine"
	"protozoa/internal/mem"
	"protozoa/internal/obs/flight"
	"protozoa/internal/recycle"
)

// dirSlice is one tile's slice of the shared inclusive L2 with its
// in-cache directory. Sharers are tracked at REGION granularity with a
// precise bit vector; Protozoa-MW keeps a second vector separating
// writers (owners) from readers, exactly as the paper's Section 3.4
// directory does. The slice serializes coherence: at most one
// transaction is active per region, later requests queue behind it,
// and spontaneous (eviction) writebacks are response-class messages
// processed even while the region is busy.
type dirSlice struct {
	sys  *System
	node int

	// Entry table. Homes interleave regions low-order across tiles
	// (home = region % cores), so region/cores is a dense, collision-free
	// per-tile slot. index maps a slot to its entry's arena position
	// plus one (0 = no entry). Entries live by value in the arena, in
	// creation order, in fixed chunks drawn from the dirChunks pool:
	// storage follows the live entries, not the span of addresses they
	// sit in, which is sparse in most workloads. free holds the
	// positions dropEntry vacated (finite L2) for reuse.
	index mem.RegionTable[uint32]
	arena []*dirChunk
	used  uint32 // arena positions handed out
	free  []uint32
	count int // live entries

	// words holds the L2 data blocks: words[i] pairs with arena[i] and
	// keeps stride (the geometry's WordsPerRegion) words per entry, at
	// the entry's arena position. block is the only way in.
	words  [][]uint64
	stride uint32

	// One-entry memo: coherence traffic is bursty per region (request,
	// probes, replies, unblock all hit the same entry back to back).
	lastRegion mem.RegionID
	lastEntry  *dirEntry

	// txnSeq feeds newTxnID: transaction IDs are issued per slice and
	// stay globally unique by striding the sequence across slices.
	txnSeq uint64

	touchSeq uint64
	bloom    *bloomDir // non-nil when Config.Directory == DirBloom

	// busyTxns counts regions with an active transaction on this slice —
	// the directory-occupancy gauge. Maintained by setBusy/clearBusy so
	// sampling is O(1) instead of a table walk.
	busyTxns int

	// memory holds regions written back on inclusion evictions; absent
	// regions read as zero (fresh physical memory).
	memory map[mem.RegionID][]uint64
}

// dirEntry is one region's directory entry. Its L2 data block lives
// in the slice's word store at the entry's arena position (block), so
// an entry is 96 bytes whatever the region size. The fields every
// request reads come first, in the entry's first 64 bytes; at 96 bytes
// an entry starts on a cache-line boundary only at even arena
// positions, so those 64 bytes span one line or two.
type dirEntry struct {
	region mem.RegionID
	touch  uint64  // LRU stamp for finite-L2 inclusion eviction
	txn    *dirTxn // nil when idle; points at txnStore when active
	queue  []*Msg

	sharers directory.NodeSet // every L1 possibly caching a sub-block
	owners  directory.NodeSet // subset possibly holding dirty/exclusive sub-blocks
	valid   mem.Bitmap        // words present at the L2 (always full when inclusive)

	live           bool // the arena position holds a region's entry
	busy           bool
	l2dirty        bool  // L2 newer than memory
	memTouched     bool  // first-touch memory fetch already paid
	pendingUnblock bool  // 3-hop: requester unblocked before the probes retired
	from           uint8 // state code at processing (for the transaction's state edge)

	pos      uint32 // arena position, which also locates the L2 block
	txnStore dirTxn // in-place transaction storage (no per-txn alloc)
}

// dirChunkSlots is how many entries one arena chunk holds.
const dirChunkSlots = 256

type dirChunk [dirChunkSlots]dirEntry

// dirChunks recycles arena chunks across machines; a chunk is cleared
// when drawn.
var dirChunks recycle.Pool[*dirChunk]

// wordChunks recycles the word chunks paired with arena chunks, one
// pool per region size (indexed by log2 of WordsPerRegion, up to
// log2(MaxRegionWords) = 4), so every chunk a pool holds is exactly
// dirChunkSlots*WordsPerRegion words long and all of it is in use. A
// chunk is cleared when drawn.
var wordChunks [5]recycle.Pool[[]uint64]

func wordPool(stride uint32) *recycle.Pool[[]uint64] {
	return &wordChunks[bits.TrailingZeros32(stride)]
}

// dirTxn is one active coherence transaction.
type dirTxn struct {
	id        uint64
	req       *Msg
	waiting   int32 // probe replies outstanding
	forwarded bool  // a 3-hop owner already supplied the requester
}

// newTxnID issues the slice's next transaction ID: nonzero (0 marks
// spontaneous writebacks) and distinct across all slices because each
// slice's sequence occupies its own residue class modulo the tile count.
func (d *dirSlice) newTxnID() uint64 {
	d.txnSeq++
	return d.txnSeq*uint64(d.sys.cfg.Cores) + uint64(d.node) + 1
}

func newDirSlice(sys *System, node int) *dirSlice {
	d := &dirSlice{
		sys: sys, node: node,
		index:  mem.RegionTable[uint32]{Pool: &tableChunks},
		stride: uint32(sys.geom.WordsPerRegion()),
		memory: make(map[mem.RegionID][]uint64),
	}
	if sys.cfg.Directory == DirBloom {
		hashes, buckets := sys.cfg.BloomHashes, sys.cfg.BloomBuckets
		if hashes <= 0 {
			hashes = DefaultBloomHashes
		}
		if buckets <= 0 {
			buckets = DefaultBloomBuckets
		}
		d.bloom = newBloomDir(hashes, buckets, sys.cfg.Cores)
	}
	return d
}

// setBusy and clearBusy are the only writers of dirEntry.busy, keeping
// the busyTxns occupancy gauge exact.
func (d *dirSlice) setBusy(e *dirEntry) {
	if !e.busy {
		e.busy = true
		d.busyTxns++
	}
}

func (d *dirSlice) clearBusy(e *dirEntry) {
	if e.busy {
		e.busy = false
		d.busyTxns--
	}
}

// sharersOf returns the sharer set the directory hardware would see:
// the exact vector in precise mode, the AND-of-k-filters superset in
// bloom mode.
func (d *dirSlice) sharersOf(e *dirEntry) directory.NodeSet {
	if d.bloom != nil {
		return d.bloom.sharers(e.region)
	}
	return e.sharers
}

// addSharer and removeSharer keep e.sharers as the exactly-paired
// insert/remove bookkeeping. In bloom mode that mirrors what TL
// hardware gets for free from the L1s' own tags (an L1 knows whether
// it already holds blocks of a region, and bloom mode's replacement
// notifications make removals explicit); the counting filter is
// updated only on genuine membership changes, so aliasing can create
// false positives but never false negatives.
func (d *dirSlice) addSharer(e *dirEntry, n int) {
	if e.sharers.Has(n) {
		return
	}
	e.sharers = e.sharers.Add(n)
	if d.bloom != nil {
		d.bloom.add(e.region, n)
	}
}

func (d *dirSlice) removeSharer(e *dirEntry, n int) {
	if !e.sharers.Has(n) {
		return
	}
	e.sharers = e.sharers.Remove(n)
	if d.bloom != nil {
		d.bloom.remove(e.region, n)
	}
}

// slot maps a region homed on this tile to its dense table index.
func (d *dirSlice) slot(region mem.RegionID) uint64 {
	return uint64(region) / uint64(d.sys.cfg.Cores)
}

// at returns the entry at an arena position.
func (d *dirSlice) at(pos uint32) *dirEntry {
	return &d.arena[pos/dirChunkSlots][pos%dirChunkSlots]
}

// block returns the entry's L2 data block: WordsPerRegion words,
// indexed by region word offset.
func (d *dirSlice) block(e *dirEntry) []uint64 {
	i := e.pos % dirChunkSlots * d.stride
	return d.words[e.pos/dirChunkSlots][i : i+d.stride : i+d.stride]
}

// place returns a free arena position: a vacated one, or the next
// unused one, drawing a chunk when the arena is full.
func (d *dirSlice) place() uint32 {
	if n := len(d.free); n > 0 {
		pos := d.free[n-1]
		d.free = d.free[:n-1]
		return pos
	}
	if d.used == uint32(len(d.arena))*dirChunkSlots {
		c, ok := dirChunks.Get()
		if ok {
			clear(c[:])
		} else {
			c = new(dirChunk)
		}
		w, ok := wordPool(d.stride).Get()
		if ok {
			clear(w)
		} else {
			w = make([]uint64, dirChunkSlots*d.stride)
		}
		d.arena = append(d.arena, c)
		d.words = append(d.words, w)
	}
	d.used++
	return d.used - 1
}

// eachEntry calls fn for every live entry, in arena order.
func (d *dirSlice) eachEntry(fn func(*dirEntry)) {
	for pos := uint32(0); pos < d.used; pos++ {
		if e := d.at(pos); e.live {
			fn(e)
		}
	}
}

// release hands the slice's index, arena and word chunks to their
// pools; the slice must not be used afterwards.
func (d *dirSlice) release() {
	d.index.Release()
	poison := recycle.Poison.Load()
	for i, c := range d.arena {
		w := d.words[i]
		if poison {
			bad := dirEntry{region: ^mem.RegionID(0), touch: ^uint64(0), live: true, busy: true,
				l2dirty: true, memTouched: true, sharers: ^directory.NodeSet(0), valid: ^mem.Bitmap(0),
				pos: ^uint32(0)}
			for j := range c {
				c[j] = bad
			}
			for j := range w {
				w[j] = 0xdeadbeefdeadbeef
			}
		}
		dirChunks.Put(c)
		wordPool(d.stride).Put(w)
	}
	d.arena, d.words, d.free, d.lastEntry = nil, nil, nil, nil
}

// lookup returns the region's entry without creating it or touching
// the LRU stamp (checker and scheduled-event paths).
func (d *dirSlice) lookup(region mem.RegionID) *dirEntry {
	if d.lastEntry != nil && d.lastRegion == region {
		return d.lastEntry
	}
	pos := d.index.Get(d.slot(region))
	if pos == 0 {
		return nil
	}
	e := d.at(pos - 1)
	d.lastRegion = region
	d.lastEntry = e
	return e
}

// mustEntry is lookup for scheduled transaction steps: the entry is
// pinned by its busy/queued state, so absence is a protocol bug.
func (d *dirSlice) mustEntry(region mem.RegionID) *dirEntry {
	e := d.lookup(region)
	if e == nil {
		panic(fmt.Sprintf("core: dir %d lost entry for region %d mid-transaction", d.node, region))
	}
	return e
}

// entry returns the region's entry, creating it (with a full valid
// mask and any words the memory image holds) on first touch, and
// stamps its LRU recency.
func (d *dirSlice) entry(region mem.RegionID) *dirEntry {
	e := d.lookup(region)
	if e == nil {
		if cap := d.sys.cfg.L2RegionsPerTile; cap > 0 && d.count >= cap {
			d.evictLRURegion()
		}
		pos := d.place()
		d.index.Set(d.slot(region), pos+1)
		e = d.at(pos)
		e.live = true
		e.pos = pos
		e.region = region
		e.valid = d.sys.geom.FullRange().Bitmap()
		if saved, hit := d.memory[region]; hit {
			copy(d.block(e), saved)
		}
		d.count++
		d.lastRegion = region
		d.lastEntry = e
	}
	d.touchSeq++
	e.touch = d.touchSeq
	return e
}

// evictLRURegion frees one L2 slot: the least-recently-touched idle
// region is recalled (its L1 copies invalidated, preserving inclusion)
// and its dirty data written back to memory. Busy regions are never
// victims; if everything is busy the slice briefly overshoots, like a
// hardware MSHR-full stall resolved a few cycles later.
func (d *dirSlice) evictLRURegion() {
	var victim *dirEntry
	consider := func(e *dirEntry) {
		if e.busy || len(e.queue) > 0 {
			return
		}
		if victim == nil || e.touch < victim.touch ||
			(e.touch == victim.touch && e.region < victim.region) {
			victim = e
		}
	}
	d.eachEntry(consider)
	if victim == nil {
		return
	}
	d.sys.st.Recalls++
	targets := victim.sharers.Union(victim.owners)
	if targets.Empty() {
		d.dropEntry(victim)
		return
	}
	d.setBusy(victim)
	if d.sys.flight != nil {
		d.flightDir(flight.KindTxnStart, victim.region, 0, -1, uint8(MsgRecall))
	}
	req := d.sys.newMsg()
	req.Type = MsgRecall
	req.Dst = d.node
	req.Region = victim.region
	victim.txnStore = dirTxn{
		id:      d.newTxnID(),
		req:     req,
		waiting: int32(targets.Count()),
	}
	victim.txn = &victim.txnStore
	if d.sys.attrib != nil {
		d.sys.attrib.Fanout(victim.region, targets.Count())
	}
	full := d.sys.geom.FullRange()
	targets.ForEach(func(t int) {
		inv := d.sys.newMsg()
		inv.Type = MsgInv
		inv.Src = d.node
		inv.Dst = t
		inv.Region = victim.region
		inv.R = full
		// No core is behind an inclusion recall: Requester -1 keeps the
		// attribution tracker from blaming core 0 for the invalidation.
		inv.Requester = -1
		inv.TxnID = victim.txn.id
		d.sys.send(inv)
	})
}

// dropEntry writes a dirty region back to memory and frees the slot;
// the caller must not touch e after.
func (d *dirSlice) dropEntry(e *dirEntry) {
	if e.l2dirty {
		d.sys.st.MemWritebacks++
		d.persistWords(e, e.valid)
	}
	slot := d.slot(e.region)
	d.free = append(d.free, d.index.Get(slot)-1)
	d.index.Set(slot, 0)
	d.count--
	if d.lastEntry == e {
		d.lastEntry = nil
	}
	clear(d.block(e))
	*e = dirEntry{}
}

// persistWords updates the memory image with the entry's words covered
// by mask (only L2-valid data may be persisted).
func (d *dirSlice) persistWords(e *dirEntry, mask mem.Bitmap) {
	mask = mask.Intersect(e.valid)
	if mask == 0 {
		return
	}
	data := d.block(e)
	saved, ok := d.memory[e.region]
	if !ok {
		saved = make([]uint64, len(data))
		d.memory[e.region] = saved
	}
	for w := range data {
		if mask.Has(uint8(w)) {
			saved[w] = data[w]
		}
	}
}

// fetchMissing re-fetches words absent from a non-inclusive L2 from
// the memory image and reports whether a memory access was needed —
// the multi-source assembly of Section 6.
func (d *dirSlice) fetchMissing(e *dirEntry, need mem.Bitmap) bool {
	missing := need.Intersect(e.valid ^ d.sys.geom.FullRange().Bitmap())
	if missing == 0 {
		return false
	}
	saved := d.memory[e.region] // nil reads as zero memory
	data := d.block(e)
	for w := range data {
		if missing.Has(uint8(w)) {
			if saved != nil {
				data[w] = saved[w]
			} else {
				data[w] = 0
			}
		}
	}
	e.valid = e.valid.Union(missing)
	return true
}

// recvRequest accepts GETS/GETX/UPGRADE. One transaction per region:
// a busy region queues the request.
func (d *dirSlice) recvRequest(m *Msg) {
	if d.sys.phaseOn() {
		d.flightDir(flight.KindDirAccept, m.Region, 0, m.Src, uint8(m.Type))
	}
	e := d.entry(m.Region)
	if e.busy {
		if d.sys.flight != nil {
			d.flightDir(flight.KindQueuePark, m.Region, 0, m.Src, uint8(m.Type))
		}
		e.queue = append(e.queue, m)
		return
	}
	d.activate(e, m)
}

// activate starts a transaction: pay the L2 access latency (plus the
// one-time memory fetch for the region's first touch) and then process.
func (d *dirSlice) activate(e *dirEntry, m *Msg) {
	d.setBusy(e)
	if d.sys.phaseOn() {
		d.flightDir(flight.KindTxnStart, m.Region, 0, m.Src, uint8(m.Type))
	}
	lat := d.sys.cfg.L2Lat
	if !e.memTouched {
		e.memTouched = true
		d.sys.st.MemReads++
		lat += d.sys.cfg.MemLat
	}
	m.sys = d.sys
	m.phase = phaseProcess
	d.sys.eng.ScheduleRunner(lat, m)
}

// process runs the directory state machine for one request.
func (d *dirSlice) process(e *dirEntry, m *Msg) {
	if d.sys.edgesOn() {
		e.from = d.flightDirCode(e)
	}
	if d.sys.phaseOn() {
		d.flightDir(flight.KindTxnProcess, m.Region, 0, m.Src, uint8(m.Type))
	}
	// Figure 11 accounting: record the sharer mix every time a request
	// reaches an entry in Owned state.
	if !e.owners.Empty() {
		switch {
		case e.owners.Count() > 1:
			d.sys.st.DirMultiOwner++
		case d.sharersOf(e).Without(e.owners).Empty():
			d.sys.st.DirOwnerOneOnly++
		default:
			d.sys.st.DirOwnerPlusSharers++
		}
	}

	req := m.Src
	var targets directory.NodeSet
	switch m.Type {
	case MsgGetS:
		// Readers are never probed on a read; only (possible) owners
		// must surrender write permission.
		targets = e.owners.Remove(req)
	case MsgGetX, MsgUpgrade:
		targets = d.sharersOf(e).Union(e.owners).Remove(req)
	default:
		panic(fmt.Sprintf("core: directory activated on %v", m.Type))
	}
	if targets.Empty() {
		d.finish(e, m, false)
		return
	}
	e.txnStore = dirTxn{id: d.newTxnID(), req: m, waiting: int32(targets.Count())}
	e.txn = &e.txnStore
	if d.sys.attrib != nil {
		d.sys.attrib.Fanout(m.Region, targets.Count())
	}
	// 3-hop: with exactly one target that is an owner and a data-bearing
	// request, let the owner forward the data straight to the requester.
	direct := d.sys.cfg.ThreeHop && targets.Count() == 1 &&
		(m.Type == MsgGetS || m.Type == MsgGetX)
	targets.ForEach(func(t int) {
		probe := d.sys.newMsg()
		probe.Src = d.node
		probe.Dst = t
		probe.Region = m.Region
		probe.R = m.R
		probe.Requester = req
		probe.TxnID = e.txn.id
		switch {
		case m.Type == MsgGetS:
			probe.Type = MsgFwdGetS
		case e.owners.Has(t):
			probe.Type = MsgFwdGetX
		default:
			probe.Type = MsgInv
		}
		probe.Direct = direct && e.owners.Has(t)
		d.sys.send(probe)
	})
}

// recvResponse accepts probe replies and spontaneous writebacks. Both
// patch the L2 and refresh the sharer/owner vectors from the
// responder's StillSharer/StillOwner flags; probe replies additionally
// retire the active transaction.
func (d *dirSlice) recvResponse(m *Msg) {
	e := d.entry(m.Region)
	if m.Type == MsgUnblock {
		if e.txn != nil {
			// 3-hop: the owner-supplied fill beat the probe replies to
			// the directory; hold the unblock until the txn retires.
			e.pendingUnblock = true
			return
		}
		d.unblock(e)
		return
	}
	// Patch dirty words into the L2 (restoring their validity when the
	// non-inclusive L2 had dropped them).
	carried := m.Valid.Intersect(m.Dirty)
	if carried != 0 {
		data := d.block(e)
		for w := range data {
			if carried.Has(uint8(w)) {
				data[w] = m.Words[w]
			}
		}
		e.valid = e.valid.Union(carried)
		e.l2dirty = true
	}
	// Spontaneous writebacks mutate the vectors outside any transaction;
	// snapshot the state code so the edge they cause is recorded too.
	wbEdge := m.TxnID == 0 && d.sys.edgesOn()
	var from uint8
	if wbEdge {
		from = d.flightDirCode(e)
	}
	if !m.StillSharer {
		d.removeSharer(e, m.Src)
	}
	if !m.StillOwner {
		e.owners = e.owners.Remove(m.Src)
	}
	if wbEdge {
		d.stateEdge(e, from, uint8(m.Type), m.Src, -1)
	}
	if m.TxnID != 0 && e.txn != nil && m.TxnID == e.txn.id {
		if m.ForwardedData {
			e.txn.forwarded = true
		}
		e.txn.waiting--
		if e.txn.waiting == 0 {
			req := e.txn.req
			forwarded := e.txn.forwarded
			e.txn = nil
			if req.Type != MsgRecall {
				// Recall transactions carry Src=0, not a requester core.
				if d.sys.phaseOn() {
					d.flightDir(flight.KindTxnLastAck, e.region, m.TxnID, req.Src, uint8(req.Type))
				}
			}
			d.finish(e, req, forwarded)
		}
	}
}

// finish completes a transaction: reply to the requester (unless a
// 3-hop owner already did) and update the vectors for its new
// permissions.
func (d *dirSlice) finish(e *dirEntry, m *Msg, forwarded bool) {
	if m.Type == MsgRecall {
		// Inclusion eviction completed: every copy is invalidated and
		// dirty data patched. If a request raced in while the recall
		// ran, abandon the eviction and serve it (the data is current);
		// otherwise free the slot.
		if d.sys.flight != nil {
			d.flightDir(flight.KindTxnEnd, e.region, 0, -1, uint8(MsgRecall))
		}
		if len(e.queue) > 0 {
			e.txn = nil
			d.popQueue(e)
		} else {
			d.clearBusy(e)
			d.dropEntry(e)
		}
		d.sys.freeMsg(d.node, m)
		return
	}
	req := m.Src
	reply := d.sys.newMsg()
	reply.Src = d.node
	reply.Dst = req
	reply.Region = m.Region
	reply.R = m.R
	switch m.Type {
	case MsgGetS:
		if d.sharersOf(e).Remove(req).Empty() && e.owners.Remove(req).Empty() {
			// No cached copies anywhere else — any remaining requester
			// bits are stale leftovers of its own silent clean drop:
			// grant Exclusive and track the holder as a potential
			// (silent-M) owner.
			reply.Type = MsgDataE
			e.owners = e.owners.Add(req)
		} else {
			reply.Type = MsgData
		}
		d.addSharer(e, req)
	case MsgGetX, MsgUpgrade:
		if m.Type == MsgUpgrade && d.sharersOf(e).Has(req) {
			// The requester's clean copy survived: permission only.
			reply.Type = MsgGrant
		} else {
			reply.Type = MsgDataM
		}
		if d.sys.cfg.Protocol == ProtozoaMW {
			e.owners = e.owners.Add(req)
		} else {
			e.owners = directory.NodeSet(0).Add(req)
		}
		d.addSharer(e, req)
	}

	// Assemble the payload. A non-inclusive L2 may have to re-fetch
	// words it dropped when it granted them exclusively (Section 6:
	// "request them from the lower level and combine them with the
	// block obtained from Core-1").
	dataBearing := reply.Type == MsgData || reply.Type == MsgDataE || reply.Type == MsgDataM
	var delay engine.Cycle
	if dataBearing && !forwarded {
		if d.sys.cfg.NonInclusiveL2 && d.fetchMissing(e, m.R.Bitmap()) {
			d.sys.st.MemFetches++
			delay = d.sys.cfg.MemLat
		}
		d.loadPayload(e, reply)
	}
	// A non-inclusive L2 drops its copy of exclusively granted words
	// (persisting dirty data to memory first so it is never lost).
	if d.sys.cfg.NonInclusiveL2 &&
		(m.Type == MsgGetX || m.Type == MsgUpgrade || reply.Type == MsgDataE) {
		granted := m.R.Bitmap()
		if e.l2dirty {
			d.persistWords(e, granted)
		}
		e.valid = e.valid.Intersect(granted ^ d.sys.geom.FullRange().Bitmap())
	}
	if !forwarded {
		if delay > 0 {
			reply.phase = phaseSend
			d.sys.eng.ScheduleRunner(delay, reply)
		} else {
			d.sys.send(reply)
		}
	} else {
		// A 3-hop owner already supplied the requester; the unsent
		// reply goes straight back to the pool.
		d.sys.freeMsg(d.node, reply)
	}
	if d.sys.edgesOn() {
		d.stateEdge(e, e.from, uint8(m.Type), d.node, req)
	}
	// The region stays busy until the requester's UNBLOCK confirms the
	// fill is installed; only then may the next transaction's probes
	// fly, so a probe can never overtake the data it conflicts with.
	// With 3-hop forwarding the unblock may already have arrived.
	if e.pendingUnblock {
		e.pendingUnblock = false
		d.unblock(e)
	}
	// The request's transaction is fully retired: recycle it.
	d.sys.freeMsg(d.node, m)
}

// unblock reopens the region after the requester installed its fill
// and activates the next queued transaction, if any.
func (d *dirSlice) unblock(e *dirEntry) {
	if d.sys.flight != nil {
		d.flightDir(flight.KindTxnEnd, e.region, 0, -1, flight.SubNone)
	}
	if d.sys.obs != nil {
		d.sys.obs.OnTxnEnd(e.region)
	}
	if len(e.queue) > 0 {
		d.popQueue(e)
	} else {
		d.clearBusy(e)
	}
}

// popQueue dequeues the region's next waiting request and schedules
// its activation after the 1-cycle dequeue delay. The queue compacts
// in place so its backing array is reused for the region's lifetime.
func (d *dirSlice) popQueue(e *dirEntry) {
	next := e.queue[0]
	if d.sys.flight != nil {
		d.flightDir(flight.KindQueueUnpark, e.region, 0, next.Src, uint8(next.Type))
	}
	n := copy(e.queue, e.queue[1:])
	e.queue[n] = nil
	e.queue = e.queue[:n]
	next.phase = phaseActivate
	d.sys.eng.ScheduleRunner(1, next)
}

// loadPayload fills a data reply with the requested words from the L2
// block.
func (d *dirSlice) loadPayload(e *dirEntry, reply *Msg) {
	data := d.block(e)
	for w := reply.R.Start; ; w++ {
		reply.Words[w] = data[w]
		if w == reply.R.End {
			break
		}
	}
	reply.Valid = reply.R.Bitmap()
}
