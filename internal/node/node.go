// Package node assembles ONE site of the replicated database — stable log,
// storage, lock manager, data manager, transaction manager, session manager,
// recovery manager and janitor — exactly once (Site, site.go), over whatever
// transport.Transport it is handed. internal/core builds N Sites over the
// in-process simulator; Node, below, is one Site over a real TCP transport
// (internal/transport/tcpnet) with a strided sequencer, which cmd/srnode
// wraps in a process with an HTTP control surface, so a cluster of srnode
// processes exercises the paper's protocol over localhost TCP.
//
// Storage is pluggable (Config.Engine): the default in-memory engine makes
// Crash model the paper's fail-stop site failure in-process — the data
// manager drops its volatile state (locks, in-flight transactions, session
// number) and the dispatcher answers everything with proto.ErrSiteDown,
// exactly what peers would see from a refused connection — while stable
// storage and the log survive for Recover to use. For REAL process death
// (SIGKILL), the genuinely-stable slice the paper requires — the 2PC log
// (§3.4), which also carries the session counter (§3.1) — lives in one file
// when SiteConfig.Log comes from wal.Open, and the next start reopens it
// with StartDown. With the in-memory engine, data pages die with the
// process and are rebuilt from live peers by the copiers — the out-of-date
// copies story the recovery procedure exists to handle; with the disk
// engine (storage/disk), the redo pass rebuilds committed pages from the
// reopened log before the node even assembles, so only pages that actually
// changed while the process was dead need a peer.
package node

import (
	"fmt"
	"net"
	"time"

	"siterecovery/internal/proto"
	"siterecovery/internal/replication"
	"siterecovery/internal/transport/tcpnet"
	"siterecovery/internal/txn"
)

// Config assembles one site over TCP.
type Config struct {
	// SiteConfig is the site itself; Site is required. cmd/srnode opens its
	// Log over its state dir.
	SiteConfig
	// Sites is the total number of sites in the cluster. Required.
	Sites int
	// Addrs maps every site to its TCP address. Required.
	Addrs map[proto.SiteID]string
	// Listener optionally overrides listening on Addrs[Site].
	Listener net.Listener
	// Placement maps each logical item to its replica sites. Required.
	Placement map[proto.Item][]proto.SiteID
	// Epoch is this process's incarnation number (0 for the first life).
	// It seeds the transaction-ID counter (txn.Sequencer.SeedTxnIDs) so a
	// respawned process never re-allocates an ID its dead incarnation may
	// have left prepared — in doubt — at a peer. cmd/srnode wires it from
	// -epoch, which the chaos harness bumps on every respawn.
	Epoch uint64
}

func (c Config) validate() error {
	if c.Site < 1 || int(c.Site) > c.Sites {
		return fmt.Errorf("node: site %v out of range 1..%d", c.Site, c.Sites)
	}
	if len(c.Placement) == 0 {
		return fmt.Errorf("node: placement must not be empty")
	}
	if _, ok := c.Addrs[c.Site]; !ok && c.Listener == nil {
		return fmt.Errorf("node: no address for site %v", c.Site)
	}
	return nil
}

// defaultLockTimeout is how long a srnode site waits for a lock when
// Config.LockTimeout is unset. It is a safety net against cross-site
// deadlock, not a tuning point: over real sockets a holder can be several
// scheduling quanta away, so it is much longer than the simulator's 250 ms.
const defaultLockTimeout = 2 * time.Second

// Node is one running site over TCP. Create with New, then Start.
type Node struct {
	*Site
	Transport *tcpnet.Transport
}

// New assembles a node. The node starts nominally up and operational with
// session number 1 (unless StartDown); call Start to begin serving.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ids := make([]proto.SiteID, 0, cfg.Sites)
	for i := 1; i <= cfg.Sites; i++ {
		ids = append(ids, proto.SiteID(i))
	}
	cat, err := replication.NewCatalog(ids, cfg.Placement)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}

	// Transaction IDs and commit sequence numbers come from a strided
	// sequencer: each process draws from its own residue class, so IDs are
	// cluster-unique without a shared counter. Strided commit counters are
	// not globally ordered on their own; the site folds every commit
	// sequence number it learns from peers back into the sequencer, and the
	// transport stamps its span events with the same high-water mark, so
	// multi-process trace merges order spans by observed commit history.
	seq := txn.NewStridedSequencer(cfg.Site, cfg.Sites)
	seq.SeedTxnIDs(cfg.Epoch)

	tr := tcpnet.New(tcpnet.Config{
		Self:     cfg.Site,
		Addrs:    cfg.Addrs,
		Listener: cfg.Listener,
		Obs:      cfg.Obs,
		Lamport:  seq.HighCommitSeq,
		Names:    cat,
	})

	sc := cfg.SiteConfig
	if sc.LockTimeout == 0 {
		sc.LockTimeout = defaultLockTimeout
	}
	// No Clock (the wall clock), Recorder, Spool or Hooks: a process has no
	// virtual time, no cluster-wide history and no in-process fault hooks.
	site, err := NewSite(Env{Net: tr, Catalog: cat, Seq: seq, Seed: 1}, sc)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	tr.SetHandler(site.Handle)
	return &Node{Site: site, Transport: tr}, nil
}

// Start begins serving the transport and launches the background workers.
func (n *Node) Start() error {
	if err := n.Transport.Start(); err != nil {
		return err
	}
	n.Site.Start()
	return nil
}

// Stop shuts the workers and the transport down.
func (n *Node) Stop() {
	n.Site.Stop()
	n.Transport.Close()
}
