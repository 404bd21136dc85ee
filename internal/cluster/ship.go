package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/wire"
)

// Ship partitions cat into len(groups) shards by root-union range and
// installs shard i on every replica of groups[i] through POST
// /shard/install. Workers validate, persist and mmap the snapshot
// before swapping it in, so a failed ship leaves them serving whatever
// they served before. Ship returns the manifest the coordinator needs
// to plan distribution; persist its JSON form so a restarted
// coordinator can skip re-sharding.
func Ship(ctx context.Context, client *http.Client, groups [][]string, cat *catalog.Catalog) (*catalog.ShardManifest, error) {
	if client == nil {
		client = &http.Client{}
	}
	shards, man, err := catalog.Split(cat, len(groups))
	if err != nil {
		return nil, err
	}
	for i, grp := range groups {
		var buf bytes.Buffer
		if _, err := shards[i].WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("cluster: encoding shard %d: %w", i, err)
		}
		for _, base := range grp {
			if err := install(ctx, client, base, man.Catalog, buf.Bytes()); err != nil {
				return nil, fmt.Errorf("cluster: shipping shard %d to %s: %w", i, base, err)
			}
		}
	}
	return man, nil
}

// install posts one shard snapshot to one replica.
func install(ctx context.Context, client *http.Client, base, db string, snapshot []byte) error {
	u := base + "/shard/install?db=" + url.QueryEscape(db)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(snapshot))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		msg := string(b)
		if eb, err := wire.DecodeError(b); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		return fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	return nil
}
