// Command hammerhead-replica runs a non-voting read replica: it bootstraps
// from a quorum-certified snapshot served by a validator gateway, tails the
// commit stream, re-executes every transaction, and cross-checks its chained
// state roots against the committee's checkpoint certificates, which the
// stream pushes as the validators attach them. It then serves
// the same read surface as a validator gateway — including proof-carrying
// reads (GET /v1/kv/{key}?proof=1) verifiable with zero trust in the replica
// — while redirecting transaction submissions back to the validators.
//
// The replica trusts only the committee file (the same genesis artifact the
// validators hold): every snapshot and every certificate is verified against
// the committee's public keys before anything is served. A replica that
// detects divergence between its re-executed state and a quorum certificate
// poisons itself and exits non-zero rather than serve unverifiable data.
//
//	hammerhead-keygen -n 4 -out ./testnet
//	hammerhead-node -committee ./testnet/committee.json -id 0 ... -rpc-addr 127.0.0.1:9401 -execution
//	hammerhead-replica -committee ./testnet/committee.json \
//	    -validators 127.0.0.1:9401,127.0.0.1:9402 -listen 127.0.0.1:9500
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hammerhead/internal/crypto"
	"hammerhead/internal/genesis"
	"hammerhead/internal/obs"
	"hammerhead/internal/replica"
	"hammerhead/pkg/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hammerhead-replica:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hammerhead-replica", flag.ContinueOnError)
	committeePath := fs.String("committee", "committee.json", "committee configuration file (the trust anchor: certificates are verified against its keys)")
	validators := fs.String("validators", "", "comma-separated validator gateway addresses (host:port) to bootstrap from and tail")
	listen := fs.String("listen", "127.0.0.1:9500", "address for this replica's read gateway")
	bootstrapTimeout := fs.Duration("bootstrap-timeout", 2*time.Minute, "give up if no certified snapshot appears within this window")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := fs.String("log-format", "text", "log format: text|json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validators == "" {
		return fmt.Errorf("-validators is required")
	}

	file, err := genesis.Load(*committeePath)
	if err != nil {
		return err
	}
	committee, err := file.Committee()
	if err != nil {
		return err
	}
	pubs, err := file.PublicKeys()
	if err != nil {
		return err
	}
	scheme, err := crypto.SchemeByName(file.Scheme)
	if err != nil {
		return err
	}

	var endpoints []string
	for _, ep := range strings.Split(*validators, ",") {
		endpoints = append(endpoints, strings.TrimSpace(ep))
	}
	root, err := obs.NewLogger(os.Stdout, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	logger := obs.Component(root, "replica")
	rep, err := replica.New(replica.Config{
		Validators: endpoints,
		Verifier:   &client.Verifier{Committee: committee, PublicKeys: pubs, Scheme: scheme},
		RPCAddr:    *listen,
		Logger:     root,
	})
	if err != nil {
		return err
	}
	defer rep.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *bootstrapTimeout)
	logger.Info("bootstrapping (waiting for a quorum-certified snapshot)", "validators", endpoints)
	err = rep.Bootstrap(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	rep.Start()
	logger.Info("read gateway listening (GET /v1/kv/{key}[?proof=1], /v1/commits, /v1/checkpoint, /v1/status; POST /v1/tx redirects)",
		"addr", rep.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := rep.Err(); err != nil {
				// Divergence or an unrecoverable stream failure: serving
				// stopped the moment it was detected; make it operational.
				return fmt.Errorf("replica poisoned: %w", err)
			}
			certSeq := uint64(0)
			if cert, ok := rep.Certificate(); ok {
				certSeq = cert.Meta.CommitSeq
			}
			logger.Info("status",
				"applied_seq", rep.AppliedSeq(),
				"certified_seq", certSeq,
				"chained_root", rep.ChainedRoot())
		case s := <-sig:
			logger.Info("shutting down", "signal", s.String())
			return nil
		}
	}
}
