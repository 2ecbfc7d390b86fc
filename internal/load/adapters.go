package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"siterecovery/internal/core"
	"siterecovery/internal/proto"
	"siterecovery/internal/txn"
)

// ClusterTargets returns one executor per cluster site, each coordinating
// transactions at that site, plus a fault controller for the same cluster.
// Passing an explicit site list pins coordinators (e.g. to keep the crashed
// site out of the rotation).
func ClusterTargets(cluster *core.Cluster, sites ...proto.SiteID) ([]Executor, Controller) {
	if len(sites) == 0 {
		sites = cluster.Sites()
	}
	targets := make([]Executor, 0, len(sites))
	for _, site := range sites {
		targets = append(targets, func(ctx context.Context, t Txn) error {
			return cluster.Exec(ctx, site, func(ctx context.Context, tx *txn.Tx) error {
				return Apply(ctx, tx, t)
			})
		})
	}
	return targets, clusterController{cluster}
}

type clusterController struct{ c *core.Cluster }

func (cc clusterController) Crash(site proto.SiteID) { cc.c.Crash(site) }
func (cc clusterController) Recover(ctx context.Context, site proto.SiteID) error {
	_, err := cc.c.Recover(ctx, site)
	return err
}

// Apply runs a generated transaction's body on tx: every read, then every
// write. It is the one such body — netsim executors, srnode's POST /txn and
// the chaos runner's transaction step all call it.
func Apply(ctx context.Context, tx *txn.Tx, t Txn) error {
	for _, item := range t.Reads {
		if _, err := tx.Read(ctx, item); err != nil {
			return err
		}
	}
	for _, w := range t.Writes {
		if err := tx.Write(ctx, w.Item, w.Value); err != nil {
			return err
		}
	}
	return nil
}

// HTTPTarget returns an executor that posts transactions to an srnode
// control endpoint (POST /txn) at baseURL, e.g. "http://127.0.0.1:8101".
// It is the one /txn client: srload, the process chaos runner and the
// process tests all post through it.
func HTTPTarget(baseURL string) Executor {
	return func(ctx context.Context, t Txn) error {
		payload, err := json.Marshal(t)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/txn", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("txn: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		io.Copy(io.Discard, resp.Body)
		return nil
	}
}
