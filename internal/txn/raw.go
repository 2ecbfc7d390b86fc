package txn

import (
	"context"

	"siterecovery/internal/proto"
)

// The raw operations below are the building blocks for control transactions
// (§3.3) and copiers (§3.2), which address explicit physical copies instead
// of going through a replication profile. They participate in the same
// locking, history recording, and two-phase commit as logical operations,
// and their writes leave the site in the same flush.

// RawReadOpt tunes a RawRead.
type RawReadOpt struct {
	// Mode defaults to CheckNone (control transactions must be served by
	// recovering sites).
	Mode proto.CheckMode
	// Expect is the carried session number when Mode is CheckSession.
	Expect proto.Session
	// ReadOld reads the copy even if it is marked unreadable (total-failure
	// resolution probes).
	ReadOld bool
	// NoRecord suppresses history recording (probe reads whose winner is
	// recorded by the caller).
	NoRecord bool
}

// RawRead reads the copy of item at a specific site.
func (t *Tx) RawRead(ctx context.Context, site proto.SiteID, item proto.Item, opt RawReadOpt) (proto.Value, proto.Version, error) {
	if t.done {
		return 0, proto.Version{}, t.finished()
	}
	mode := opt.Mode
	if mode == 0 {
		mode = proto.CheckNone
	}
	rr, err := t.read(ctx, site, proto.ReadReq{
		Txn:      t.meta,
		Item:     item,
		Mode:     mode,
		Expect:   opt.Expect,
		Copier:   t.meta.Class == proto.ClassCopier,
		ReadOld:  opt.ReadOld,
		NoRecord: opt.NoRecord,
	})
	if err != nil {
		return 0, proto.Version{}, err
	}
	return rr.Value, rr.Version, nil
}

// RawWrite buffers a write of value for item at an explicit set of sites
// (none: nothing to write) for Commit to flush with the rest of the write
// set; the commit fails unless every target takes it. Control transactions
// use it, with no session check, to update the nominal session numbers at
// every available site. A later write of the same item replaces this one,
// targets and all.
func (t *Tx) RawWrite(sites []proto.SiteID, item proto.Item, value proto.Value) error {
	if t.done {
		return t.finished()
	}
	if len(sites) == 0 {
		return nil
	}
	s := t.scr
	from := len(s.sites)
	s.sites = append(s.sites, sites...)
	t.buffer(writeEntry{item: item, value: value, sites: s.sites[from:len(s.sites):len(s.sites)]})
	return nil
}

// LockLocalExclusive pins the local copy of item with an exclusive lock
// before anything else happens. The copier driver locks the stale copy
// first so a concurrent user write cannot slip a newer value in between the
// copier's source read and its install.
func (t *Tx) LockLocalExclusive(ctx context.Context, item proto.Item) error {
	if t.done {
		return t.finished()
	}
	t.attempted.add(t.m.cfg.Site)
	if err := t.m.cfg.Local.LockExclusive(ctx, t.meta, item); err != nil {
		return err
	}
	t.parts.add(t.m.cfg.Site)
	t.wparts.add(t.m.cfg.Site)
	return nil
}

// LocalUnreadable reports whether the local copy of item is still marked
// unreadable. Copiers check it after pinning the copy: a user write may
// have refreshed it already, making the copy current.
func (t *Tx) LocalUnreadable(item proto.Item) bool {
	return t.m.cfg.Local.IsUnreadable(item)
}

// BufferLocalRefresh buffers a copier-style refresh of the local copy of
// item: at commit it installs value under the original writer's version.
// The caller must hold the exclusive lock via LockLocalExclusive.
func (t *Tx) BufferLocalRefresh(item proto.Item, value proto.Value, version proto.Version) error {
	if t.done {
		return t.finished()
	}
	t.attempted.add(t.m.cfg.Site)
	t.parts.add(t.m.cfg.Site)
	t.wparts.add(t.m.cfg.Site)
	if err := t.m.cfg.Local.BufferRefresh(t.meta, item, value, version); err != nil {
		return err
	}
	t.refreshed = true
	return nil
}
