package disk

import "fmt"

// frame is one buffered page. lastUse 0 marks a frame that holds no page.
type frame struct {
	id      uint32
	data    []byte
	dirty   bool
	pageLSN uint64 // log LSN that must be durable before this page may flush
	lastUse uint64
}

// pageIO is the pool's view of the heap file.
type pageIO interface {
	readPage(id uint32, buf []byte) error
	writePage(id uint32, buf []byte) error
}

// pool is a small LRU buffer pool over a fixed set of frames carved from
// one slab when it is created: a miss reuses the least recently used frame
// in place, so serving pages allocates nothing after open. It is not
// self-locking: the table's mutex serializes all access. Dirty pages are
// flushed on eviction, and only after the log confirms their pageLSN
// durable (WAL-before-data).
type pool struct {
	frames  []frame           // all of them, resident or free
	index   map[uint32]*frame // resident page id -> its frame
	tick    uint64
	io      pageIO
	durable func() uint64

	hits, misses, evictions, flushes uint64
}

func newPool(capacity int, io pageIO, durable func() uint64) *pool {
	slab := make([]byte, capacity*PageSize)
	frames := make([]frame, capacity)
	for i := range frames {
		frames[i].data = slab[i*PageSize : (i+1)*PageSize : (i+1)*PageSize]
	}
	return &pool{
		frames:  frames,
		index:   make(map[uint32]*frame, capacity),
		io:      io,
		durable: durable,
	}
}

// get pins nothing (single-threaded under the table lock): it returns the
// frame for id, reading it from the heap file on a miss into the frame it
// evicts. The frame is therefore only valid until the next get. A page
// beyond the file's current end reads back as an empty page, so freshly
// allocated pages survive eviction before their first flush.
func (p *pool) get(id uint32) (*frame, error) {
	p.tick++
	if f, ok := p.index[id]; ok {
		f.lastUse = p.tick
		p.hits++
		return f, nil
	}
	p.misses++
	f, err := p.evict()
	if err != nil {
		return nil, err
	}
	if err := p.io.readPage(id, f.data); err != nil {
		return nil, err // f stays free
	}
	if pageZero(f.data) {
		pageInit(f.data)
	}
	*f = frame{id: id, data: f.data, lastUse: p.tick}
	p.index[id] = f
	return f, nil
}

// touch marks a frame dirty under lsn after its page bytes were mutated.
func (p *pool) touch(f *frame, lsn uint64) {
	f.dirty = true
	if lsn > f.pageLSN {
		f.pageLSN = lsn
	}
}

// evict returns a free frame: one never used if any, else the least
// recently used resident one, flushed first if dirty.
func (p *pool) evict() (*frame, error) {
	victim := &p.frames[0]
	for i := range p.frames {
		if p.frames[i].lastUse < victim.lastUse {
			victim = &p.frames[i]
		}
	}
	if victim.lastUse == 0 {
		return victim, nil
	}
	if victim.dirty {
		if err := p.flush(victim); err != nil {
			return nil, err
		}
	}
	delete(p.index, victim.id)
	victim.lastUse = 0
	p.evictions++
	return victim, nil
}

// flush seals and writes one dirty frame, enforcing the WAL-before-data
// rule: the redo records covering the page's updates must already be
// durable. Every log append forces before returning, so a violation here
// means the engine mutated a page without logging first — a bug, not an
// operational condition.
func (p *pool) flush(f *frame) error {
	if d := p.durable(); d < f.pageLSN {
		return fmt.Errorf("WAL-before-data violated: page %d has pageLSN %d, log durable only to %d", f.id, f.pageLSN, d)
	}
	pageSeal(f.data)
	if err := p.io.writePage(f.id, f.data); err != nil {
		return err
	}
	f.dirty = false
	p.flushes++
	return nil
}

// flushAll writes every dirty frame (checkpoint / clean shutdown).
func (p *pool) flushAll() error {
	for i := range p.frames {
		if f := &p.frames[i]; f.dirty {
			if err := p.flush(f); err != nil {
				return err
			}
		}
	}
	return nil
}
