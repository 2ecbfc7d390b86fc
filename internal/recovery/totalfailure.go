package recovery

import (
	"context"
	"fmt"

	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
)

// ResolveTotalFailure resurrects a totally failed item — one whose every
// copy is marked unreadable because all of its resident sites crashed at
// some point (§3.2: "a separate protocol is needed to resolve this
// problem, which is not discussed in this paper"; this is that protocol).
//
// It runs a user-class transaction that probes every copy, marked or not,
// picks the one with the highest version, and writes that value back
// through the ordinary ROWAA interpretation, which installs it and clears
// the marks at commit everywhere. The probe is sound only when every
// replica site is nominally up — otherwise a newer committed version could
// sit on a still-down site — so the resolver refuses to run until the
// whole replica set has rejoined.
func (m *Manager) ResolveTotalFailure(ctx context.Context, item proto.Item) error {
	replicas, err := m.cfg.Catalog.Replicas(item)
	if err != nil {
		return err
	}
	return m.cfg.TM.Run(ctx, func(ctx context.Context, tx *txn.Tx) error {
		view := tx.View()
		for _, site := range replicas {
			if !view.Up(site) {
				return fmt.Errorf("resolve %q: replica site %v not nominally up: %w",
					item, site, proto.ErrTotalFailure)
			}
		}

		var (
			bestValue proto.Value
			bestVer   proto.Version
			bestAt    proto.SiteID
			seen      bool
		)
		for _, site := range replicas {
			v, ver, err := tx.RawRead(ctx, site, item, txn.RawReadOpt{
				Mode:     proto.CheckSession,
				Expect:   view.Session(site),
				ReadOld:  true,
				NoRecord: true,
			})
			if err != nil {
				return fmt.Errorf("resolve %q: probe %v: %w", item, site, err)
			}
			if !seen || bestVer.Less(ver) {
				bestValue, bestVer, bestAt, seen = v, ver, site, true
			}
		}
		if m.cfg.Recorder != nil {
			// Record only the winning probe as the transaction's logical
			// read.
			m.cfg.Recorder.Read(tx.ID(), item, bestAt, bestVer.Writer)
		}
		// Write the survivor back: the commit installs it under this
		// transaction's version and clears every mark.
		return tx.Write(ctx, item, bestValue)
	})
}
