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
func HTTPTarget(client *http.Client, baseURL string) Executor {
	if client == nil {
		client = http.DefaultClient
	}
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
		resp, err := client.Do(req)
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

// HTTPController drives crash/recover through srnode control endpoints,
// mapping each site ID to its control base URL.
type HTTPController struct {
	Client *http.Client
	URLs   map[proto.SiteID]string
}

func (hc HTTPController) post(ctx context.Context, site proto.SiteID, path string) error {
	base, ok := hc.URLs[site]
	if !ok {
		return fmt.Errorf("load: no control URL for site %v", site)
	}
	client := hc.Client
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Crash fail-stops the site. Errors are swallowed (the Controller interface
// mirrors core.Cluster.Crash, which cannot fail); a failed crash shows up
// as the fault window committing everything.
func (hc HTTPController) Crash(site proto.SiteID) {
	_ = hc.post(context.Background(), site, "/crash")
}

// Recover runs the paper's recovery protocol on the site and waits for it
// to report current.
func (hc HTTPController) Recover(ctx context.Context, site proto.SiteID) error {
	return hc.post(ctx, site, "/recover")
}
