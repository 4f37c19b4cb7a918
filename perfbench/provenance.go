package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// provenance describes the machine, toolchain and inputs of a run. The
// latencies it accompanies are this machine's, measured through its
// page cache and filesystem, not a storage device's.
func provenance(o *options, root, commit string) []string {
	if commit == "" {
		commit = "unknown"
	}
	return []string{
		fmt.Sprintf("workload: %s  seed: %d  seconds: %g  trace: %v", o.workload, o.seed, o.seconds.Seconds(), o.trace),
		fmt.Sprintf("cpus: %d  GOMAXPROCS: %d  go: %s  os/arch: %s/%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("commit: %s  source digest: %s", commit, sourceDigest(root)),
		"sizes: " + o.sz.describe(o.workload),
		fmt.Sprintf("wal sync mode: group (ingest_read only)  scratch filesystem: %s (%s)", fsType(o.work), o.work),
		"latencies are this machine's: WAL fsyncs and spill files go through its filesystem and page cache, not a measured device",
	}
}

// sourceDigest hashes the repository's Go sources and module files, so
// a report can be tied to code even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x794c7630: "overlayfs", 0x01021994: "tmpfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
