// News: a multi-tenant feed store on one skiphash daemon — the
// walkthrough for byte-string namespaces. A parent process plays the
// operator and client; a child process (this same binary, re-executed)
// plays the daemon, serving a namespace registry over real TCP.
//
// The walkthrough: create two durable namespaces ("feeds" for feed
// metadata, "articles" for article bodies under "<feed>/<seq>" keys),
// write string-keyed data through the wire's v2 ops, run a prune loop
// that atomically trims each feed to its newest articles, then
// SIGKILL the daemon mid-service — a real crash, no flush — and start
// a fresh daemon on the same root. Namespace discovery reopens both
// maps from their WALs, and every acknowledged write (and prune)
// must still be there.
package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/server"
	"repro/skiphash"
	"repro/skiphash/client"
)

const (
	feedCount    = 3
	articlesPer  = 8
	keepPerFeed  = 3 // the prune loop trims each feed to this many
	daemonEnv    = "NEWS_DAEMON_ROOT"
	daemonBanner = "NEWS_ADDR "
)

func main() {
	if root := os.Getenv(daemonEnv); root != "" {
		runDaemon(root)
		return
	}

	root, err := os.MkdirTemp("", "news-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// Boot the daemon and create the tenant namespaces: one for feed
	// metadata, one for article bodies, each with its own WAL directory
	// under the daemon's namespace root.
	daemon, addr := startDaemon(root)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	opts := client.NamespaceOptions{Durable: true, Fsync: client.NsFsyncAlways}
	feeds, err := c.CreateNamespace("feeds", opts)
	if err != nil {
		log.Fatal(err)
	}
	articles, err := c.CreateNamespace("articles", opts)
	if err != nil {
		log.Fatal(err)
	}

	// Publish: feed metadata keyed by string id, articles keyed
	// "<feed>/<seq>" so one lexicographic range scans one feed.
	for f := 0; f < feedCount; f++ {
		feed := feedID(f)
		if _, err := feeds.Put([]byte(feed), []byte(fmt.Sprintf("The %s feed", feed))); err != nil {
			log.Fatal(err)
		}
		for a := 0; a < articlesPer; a++ {
			key := fmt.Sprintf("%s/%04d", feed, a)
			body := fmt.Sprintf("article %d of %s", a, feed)
			if _, err := articles.Put([]byte(key), []byte(body)); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("published %d feeds x %d articles\n", feedCount, articlesPer)

	// Prune loop: trim every feed to its newest keepPerFeed articles.
	// Each feed's trim is one atomic batch, so a reader never observes
	// a half-pruned feed.
	for f := 0; f < feedCount; f++ {
		feed := feedID(f)
		pairs, err := articles.Range([]byte(feed+"/"), []byte(feed+"/~"), 0)
		if err != nil {
			log.Fatal(err)
		}
		if len(pairs) <= keepPerFeed {
			continue
		}
		var steps []client.Step[[]byte, []byte]
		for _, p := range pairs[:len(pairs)-keepPerFeed] {
			steps = append(steps, client.Step[[]byte, []byte]{Kind: client.StepRemove, Key: p.Key})
		}
		if _, err := articles.Atomic(steps); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pruned %s: %d -> %d articles\n", feed, len(pairs), keepPerFeed)
	}

	// Crash. SIGKILL gives the daemon no chance to flush or shut down
	// cleanly — what survives is exactly what the per-namespace WALs
	// had fsynced, and with NsFsyncAlways that is every acknowledged
	// write and prune.
	c.Close()
	daemon.Process.Kill()
	daemon.Wait()
	fmt.Println("daemon killed")

	// Reopen: a fresh daemon on the same root discovers both ns-*
	// directories and recovers them. Namespace ids are per-process, so
	// the client re-resolves its namespaces by name.
	daemon, addr = startDaemon(root)
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	c, err = client.Dial(addr, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	feeds, err = c.Namespace("feeds")
	if err != nil {
		log.Fatal(err)
	}
	articles, err = c.Namespace("articles")
	if err != nil {
		log.Fatal(err)
	}

	for f := 0; f < feedCount; f++ {
		feed := feedID(f)
		title, ok, err := feeds.Get([]byte(feed))
		if err != nil || !ok {
			log.Fatalf("feed %s lost in the crash (ok=%v err=%v)", feed, ok, err)
		}
		pairs, err := articles.Range([]byte(feed+"/"), []byte(feed+"/~"), 0)
		if err != nil {
			log.Fatal(err)
		}
		if len(pairs) != keepPerFeed {
			log.Fatalf("feed %s recovered %d articles, want the pruned %d", feed, len(pairs), keepPerFeed)
		}
		// The prune kept the newest window: the first surviving key is
		// articlesPer-keepPerFeed.
		wantFirst := fmt.Sprintf("%s/%04d", feed, articlesPer-keepPerFeed)
		if string(pairs[0].Key) != wantFirst {
			log.Fatalf("feed %s oldest survivor %q, want %q", feed, pairs[0].Key, wantFirst)
		}
		fmt.Printf("recovered %q: %d articles, oldest %s\n", title, len(pairs), pairs[0].Key)
	}
	fmt.Println("ok: every acknowledged write and prune survived the crash")
}

func feedID(f int) string { return fmt.Sprintf("feed-%c", 'a'+f) }

// startDaemon re-executes this binary as the serving child and waits
// for its address banner.
func startDaemon(root string) (*exec.Cmd, string) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), daemonEnv+"="+root)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), daemonBanner); ok {
			go func() { // drain so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return cmd, addr
		}
	}
	log.Fatal("daemon exited before announcing its address")
	return nil, ""
}

// runDaemon is the child: a minimal multi-namespace skiphashd — a
// default int64 map plus a namespace registry rooted at root — serving
// loopback TCP until SIGTERM.
func runDaemon(root string) {
	reg, err := server.NewRegistry(server.RegistryConfig{
		Root:       root,
		Durability: skiphash.Durability{Fsync: skiphash.FsyncAlways},
	})
	if err != nil {
		log.Fatal(err)
	}
	m := skiphash.New[int64, int64](skiphash.Int64Less, skiphash.Hash64, skiphash.Config{})
	srv := server.NewWithRegistry(server.NewShardedBackend(m), reg, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s%s\n", daemonBanner, ln.Addr())
	go srv.Serve(ln)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	<-sigs
	// SIGTERM is the clean path (the walkthrough's crash is SIGKILL,
	// which never gets here): close the namespaces and exit.
	reg.CloseAll()
	m.Close()
	os.Exit(0)
}
