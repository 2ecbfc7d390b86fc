package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"siterecovery/internal/freeport"
	"siterecovery/internal/load"
	"siterecovery/internal/proto"
	"siterecovery/internal/workload"
)

// runTCP spawns a cluster of srnode OS processes over localhost TCP,
// drives it through the HTTP control surface (POST /txn), and tears it
// down. Items are fully replicated — srnode's -items places every item at
// every site.
func runTCP(ctx context.Context, o options, name string) (load.Report, error) {
	bin := o.srnodeBin
	if bin == "" {
		var err error
		bin, err = buildSrnode()
		if err != nil {
			return load.Report{}, err
		}
	}

	peerAddrs := make([]string, o.sites)
	controlAddrs := make([]string, o.sites)
	var peerSpec strings.Builder
	for i := range o.sites {
		var err error
		if peerAddrs[i], err = freeport.Addr(); err != nil {
			return load.Report{}, err
		}
		if controlAddrs[i], err = freeport.Addr(); err != nil {
			return load.Report{}, err
		}
		if i > 0 {
			peerSpec.WriteByte(',')
		}
		fmt.Fprintf(&peerSpec, "%d=%s", i+1, peerAddrs[i])
	}
	itemNames := make([]string, 0, o.items)
	for i := range o.items {
		itemNames = append(itemNames, string(workload.ItemName(i)))
	}

	var logs bytes.Buffer
	procs := make([]*exec.Cmd, 0, o.sites)
	killAll := func() {
		for _, cmd := range procs {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	for i := range o.sites {
		// Wound-wait: over real TCP a transaction holds hot locks across
		// multi-ms round trips, so cross-site deadlocks are common under
		// skew and waiting out the 2s lock timeout would dominate latency.
		cmd := exec.Command(bin,
			"-site", fmt.Sprint(i+1),
			"-peers", peerSpec.String(),
			"-items", strings.Join(itemNames, ","),
			"-control", controlAddrs[i],
			"-lock", "wound",
		)
		cmd.Stdout = &logs
		cmd.Stderr = &logs
		if err := cmd.Start(); err != nil {
			killAll()
			return load.Report{}, fmt.Errorf("start srnode %d: %w", i+1, err)
		}
		procs = append(procs, cmd)
	}
	defer killAll()

	for i := range o.sites {
		if err := waitOperational(ctx, controlAddrs[i]); err != nil {
			return load.Report{}, fmt.Errorf("site %d: %w\nsrnode output:\n%s", i+1, err, logs.String())
		}
	}

	client := &http.Client{Timeout: 35 * time.Second}
	urls := make(map[proto.SiteID]string, o.sites)
	for i, ctrl := range controlAddrs {
		urls[proto.SiteID(i+1)] = "http://" + ctrl
	}
	var targets []load.Executor
	for i := range o.sites {
		site := proto.SiteID(i + 1)
		if o.crash && site == crashSite {
			continue
		}
		targets = append(targets, load.HTTPTarget(client, urls[site]))
	}

	cfg := loadConfig(o, targets)
	cfg.Controller = load.HTTPController{Client: client, URLs: urls}
	cfg.Faults = faultSchedule(o)

	res, err := load.Run(ctx, cfg)
	if err != nil {
		return load.Report{}, err
	}
	return res.Report(name, 0), nil
}

// buildSrnode compiles cmd/srnode into a temp dir; requires running from
// inside the module (CI and `make load` both do).
func buildSrnode() (string, error) {
	dir, err := os.MkdirTemp("", "srload-*")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "srnode")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "siterecovery/cmd/srnode")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build srnode: %w\n%s", err, out)
	}
	return bin, nil
}

func waitOperational(ctx context.Context, ctrl string) error {
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := http.Get("http://" + ctrl + "/status")
		lastErr = err
		if err == nil {
			var st struct {
				Up          bool `json:"up"`
				Operational bool `json:"operational"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.Up && st.Operational {
				return nil
			}
			lastErr = err
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("never became operational: %v", lastErr)
}
