// Inventory: a replicated warehouse stock database surviving a rolling
// outage — every site crashes and recovers in turn while order traffic
// continues — using the missing-list refinement so each recovery refreshes
// only the stock records that actually changed.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"siterecovery/internal/core"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
	"siterecovery/internal/recovery"
	"siterecovery/internal/txn"
	"siterecovery/internal/workload"
)

const (
	warehouses = 5
	products   = 40
	initial    = 500
)

func sku(i int) proto.Item {
	return proto.Item(fmt.Sprintf("sku-%03d", i))
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := core.New(core.Config{
		Sites:     warehouses,
		Placement: workload.UniformPlacement(products, 3, warehouses, 2024),
		Identify:  recovery.IdentifyMissingList,
		Obs:       obs.NewHub(obs.Options{}),
	})
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Stop()
	ctx := context.Background()

	// The catalog item names come from the placement helper.
	items := cluster.Catalog().Items()

	// Stock the shelves.
	err = cluster.Exec(ctx, 1, func(ctx context.Context, tx *txn.Tx) error {
		for _, item := range items {
			if err := tx.Write(ctx, item, initial); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stocking: %w", err)
	}
	fmt.Printf("stocked %d products across %d warehouses (3-way replication)\n",
		len(items), warehouses)

	// Order traffic: decrement stock, reorder when low.
	stop := make(chan struct{})
	traffic := make(chan int, 1)
	go func() {
		rng := rand.New(rand.NewSource(99))
		orders := 0
		for {
			select {
			case <-stop:
				traffic <- orders
				return
			default:
			}
			site := proto.SiteID(rng.Intn(warehouses) + 1)
			if !cluster.Site(site).Operational() {
				continue
			}
			item := items[rng.Intn(len(items))]
			qty := proto.Value(rng.Intn(5) + 1)
			err := cluster.Exec(ctx, site, func(ctx context.Context, tx *txn.Tx) error {
				stock, err := tx.Read(ctx, item)
				if err != nil {
					return err
				}
				if stock < qty {
					return tx.Write(ctx, item, stock+200) // reorder
				}
				return tx.Write(ctx, item, stock-qty)
			})
			if err == nil {
				orders++
			}
		}
	}()

	// Rolling outage: each warehouse crashes and recovers in turn.
	for w := 1; w <= warehouses; w++ {
		site := proto.SiteID(w)
		cluster.Crash(site)
		time.Sleep(40 * time.Millisecond) // orders keep flowing elsewhere
		report, err := cluster.Recover(ctx, site)
		if err != nil {
			return fmt.Errorf("recover warehouse %v: %w", site, err)
		}
		if err := cluster.WaitCurrent(ctx, site); err != nil {
			return err
		}
		fmt.Printf("warehouse %v: back online in %s, refreshed %d changed record(s) (copiers run so far: %d)\n",
			site, report.TimeToOperational.Round(10*time.Microsecond), report.Marked,
			cluster.Obs().Value(site, "txn", "commit.copier"))
	}
	close(stop)
	orders := <-traffic
	fmt.Printf("order traffic never stopped: %d orders committed through the rolling outage\n", orders)

	// Verify stock records agree everywhere and the run was 1-SR.
	if div := cluster.CopiesConverged(); len(div) != 0 {
		return fmt.Errorf("divergent stock records: %v", div)
	}
	if ok, cycle := cluster.CertifyOneSR(); !ok {
		return fmt.Errorf("history not one-serializable: %v", cycle)
	}
	fmt.Println("all replicas agree; history certified one-serializable")
	return nil
}
