package disk

import "fmt"

// frame is one buffered page.
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

// pool is a small LRU buffer pool. It is not self-locking: the table's
// mutex serializes all access. Dirty pages are flushed on eviction, and
// only after the log confirms their pageLSN durable (WAL-before-data).
type pool struct {
	capacity int
	frames   map[uint32]*frame
	tick     uint64
	io       pageIO
	durable  func() uint64

	hits, misses, evictions, flushes uint64
}

func newPool(capacity int, io pageIO, durable func() uint64) *pool {
	return &pool{
		capacity: capacity,
		frames:   make(map[uint32]*frame, capacity),
		io:       io,
		durable:  durable,
	}
}

// get pins nothing (single-threaded under the table lock): it returns the
// frame for id, reading it from the heap file on a miss. A page beyond the
// file's current end reads back as an empty page, so freshly allocated
// pages survive eviction before their first flush.
func (p *pool) get(id uint32) (*frame, error) {
	p.tick++
	if f, ok := p.frames[id]; ok {
		f.lastUse = p.tick
		p.hits++
		return f, nil
	}
	p.misses++
	if err := p.evictFor(1); err != nil {
		return nil, err
	}
	f := &frame{id: id, data: make([]byte, PageSize), lastUse: p.tick}
	if err := p.io.readPage(id, f.data); err != nil {
		return nil, err
	}
	if pageZero(f.data) {
		pageInit(f.data)
	}
	p.frames[id] = f
	return f, nil
}

// touch marks a frame dirty under lsn after its page bytes were mutated.
func (p *pool) touch(f *frame, lsn uint64) {
	f.dirty = true
	if lsn > f.pageLSN {
		f.pageLSN = lsn
	}
}

// evictFor makes room for n more frames, flushing dirty victims.
func (p *pool) evictFor(n int) error {
	for len(p.frames)+n > p.capacity {
		var victim *frame
		for _, f := range p.frames {
			if victim == nil || f.lastUse < victim.lastUse {
				victim = f
			}
		}
		if victim == nil {
			return nil
		}
		if victim.dirty {
			if err := p.flush(victim); err != nil {
				return err
			}
		}
		delete(p.frames, victim.id)
		p.evictions++
	}
	return nil
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
	for _, f := range p.frames {
		if f.dirty {
			if err := p.flush(f); err != nil {
				return err
			}
		}
	}
	return nil
}
