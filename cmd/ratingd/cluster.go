// Cluster roles. A member (-cluster with -cluster-self) is a primary
// that owns one keyspace range. The router (-route -cluster
// node1,node2,...) serves the stateless proxy tier in front of a
// partitioned cluster: it holds no rating state — single-object
// traffic forwards to the keyspace owner, cross-object reads
// scatter-gather across the members, and /v1/process runs the
// scan/apply exchange — so any number of routers can front the same
// member set.
package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// splitClusterURLs parses the -cluster flag: comma-separated base
// URLs, whitespace-tolerant, trailing slashes dropped so flag values
// match the canonical table form.
func splitClusterURLs(s string) []string {
	var urls []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			urls = append(urls, p)
		}
	}
	return urls
}

// newMember builds a cluster member: the primary role plus keyspace
// ownership checks on the shared handlers and the member-only
// scan/apply routes.
func newMember(o options) (*daemon, error) {
	table, err := cluster.EvenTable(o.clusterEpoch, splitClusterURLs(o.cluster))
	if err != nil {
		return nil, err
	}
	d, err := openPrimary(o)
	if err != nil {
		return nil, err
	}
	if d.member, err = cluster.NewMember(table, o.clusterSelf, d.engine); err == nil {
		err = d.servePrimary()
	}
	if err != nil {
		d.abort()
		return nil, err
	}
	return d, nil
}

// runRouter builds the routing table and the proxy, and serves until
// interrupted. Folding window evidence takes no trust parameters (each
// member applies the fold under its own); the trust config only lets
// Router.TrustSnapshot rebuild trust from a member's records.
func runRouter(o options) error {
	members := splitClusterURLs(o.cluster)
	table, err := cluster.EvenTable(o.clusterEpoch, members)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	registerProcessMetrics(reg, time.Now())

	tc := o.coreConfig().Trust
	rt, err := cluster.NewRouter(table, cluster.RouterConfig{
		Trust: &tc,
		ServerOptions: []server.Option{
			server.WithMaxBodyBytes(o.maxBody),
			server.WithRequestTimeout(o.reqTimeout),
			server.WithTelemetry(reg),
		},
	})
	if err != nil {
		return err
	}
	return serve(o.addr, telemetryMux(rt, reg, o.pprof),
		fmt.Sprintf("ratingd routing a %d-node cluster on %s (epoch %d)", len(members), o.addr, o.clusterEpoch))
}
