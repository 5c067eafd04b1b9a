// Package resultcache is a content-addressed on-disk store for
// simulation results. Entries are keyed by a canonical SHA-256 of the
// fully-resolved cell configuration (see Builder and AddStruct), so a
// cell's result is looked up — not re-simulated — whenever a later run
// requests the same configuration: warm re-runs and interrupted grids
// resume from the directory.
//
// The determinism contract makes this safe: a cell's output is a pure
// function of its resolved configuration plus the code version, both of
// which the key covers (see CodeStamp and SchemaVersion). The store
// itself is payload-agnostic — callers serialize whatever a "result"
// means to them; internal/runner owns the cell payload codec.
//
// Concurrency: every method is safe for concurrent use, and many
// processes may share one directory — entries are written to a temp
// file and renamed into place (atomic on POSIX), and every read is
// checksum-validated, so a torn or truncated entry is
// indistinguishable from a miss and falls back to re-simulation.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strconv"
	"sync/atomic"
)

// SchemaVersion is the explicit cache-invalidation knob: bump it when a
// change alters simulation results or the payload encoding without
// otherwise touching the hashed configuration (a protocol fix, a stats
// semantics change, a codec change). It is folded into every key, so a
// bump orphans all existing entries instead of serving stale results.
const SchemaVersion = 1

// Key is a canonical content hash identifying one cell configuration.
// The zero Key means "uncacheable" everywhere the type appears.
type Key [sha256.Size]byte

// IsZero reports whether the key is the uncacheable sentinel.
func (k Key) IsZero() bool { return k == Key{} }

// String renders the key as lowercase hex (the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Builder accumulates named fields into a canonical hash. Fields are
// length-prefixed (so no separator collision can alias two different
// configurations) and order-sensitive; callers must emit them in a
// deterministic order — struct field order via AddStruct, or explicit
// call order.
type Builder struct {
	buf []byte
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Field appends one name/value pair.
func (b *Builder) Field(name, value string) {
	b.buf = binary.AppendUvarint(b.buf, uint64(len(name)))
	b.buf = append(b.buf, name...)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, value...)
}

// Sum finalizes the key.
func (b *Builder) Sum() Key { return sha256.Sum256(b.buf) }

// AddStruct canonically encodes every exported field of a struct value
// (recursing into nested structs) into the builder, prefixing each
// field's path with prefix. Field names are part of the encoding, so
// renames and reorders change the key — conservative by design: a
// config struct change invalidates the cache rather than risking a
// stale hit.
//
// It returns an error for any field it cannot canonicalize — a non-nil
// func (an injected hook makes the cell's behaviour unhashable), a map,
// a channel, or a non-nil interface. Callers treat that as "this cell
// is uncacheable".
func AddStruct(b *Builder, prefix string, v any) error {
	return addValue(b, prefix, reflect.ValueOf(v))
}

func addValue(b *Builder, path string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b.Field(path, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.Field(path, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.Field(path, strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.Field(path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		b.Field(path, v.String())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if err := addValue(b, path+"."+f.Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Ptr:
		if v.IsNil() {
			b.Field(path, "nil")
			return nil
		}
		return addValue(b, path, v.Elem())
	case reflect.Slice, reflect.Array:
		b.Field(path+".len", strconv.Itoa(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := addValue(b, path+"["+strconv.Itoa(i)+"]", v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Func, reflect.Interface, reflect.Chan, reflect.Map:
		if v.IsNil() {
			b.Field(path, "nil")
			return nil
		}
		return fmt.Errorf("resultcache: field %s has uncacheable kind %s", path, v.Kind())
	default:
		return fmt.Errorf("resultcache: field %s has uncacheable kind %s", path, v.Kind())
	}
	return nil
}

// TypeFingerprint canonically describes a type's exported shape — the
// field paths and kinds AddStruct would emit — so a key can embed the
// schema of a result struct (e.g. stats.Stats): adding, removing, or
// retyping a field changes the fingerprint and invalidates entries
// whose stored payloads no longer match the code's expectations.
func TypeFingerprint(v any) string {
	var buf bytes.Buffer
	fingerprintType(&buf, "", reflect.TypeOf(v))
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

func fingerprintType(buf *bytes.Buffer, path string, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fingerprintType(buf, path+"."+f.Name, f.Type)
		}
	case reflect.Ptr, reflect.Slice, reflect.Array:
		if t.Kind() == reflect.Array {
			fmt.Fprintf(buf, "%s:[%d]", path, t.Len())
		}
		fingerprintType(buf, path+"[]", t.Elem())
	default:
		fmt.Fprintf(buf, "%s:%s;", path, t.Kind())
	}
}

// CodeStamp identifies the running build for key derivation: the main
// module version plus VCS revision/dirty state when the binary carries
// them, plus SchemaVersion. Dev builds ("(devel)", no VCS stamp) hash
// identically across rebuilds — the explicit SchemaVersion bump is the
// invalidation knob for behaviour changes during development.
func CodeStamp() string {
	stamp := "schema=" + strconv.Itoa(SchemaVersion)
	if info, ok := debug.ReadBuildInfo(); ok {
		stamp += ";mod=" + info.Main.Path + "@" + info.Main.Version
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.modified":
				stamp += ";" + s.Key + "=" + s.Value
			}
		}
	}
	return stamp
}

// Counters is a snapshot of the cache's activity.
type Counters struct {
	Hits, Misses            uint64 // Get outcomes
	BytesRead, BytesWritten uint64 // payload bytes read by hits and written by Puts
}

// Cache is the on-disk store. The zero value is not usable; construct
// with Open.
type Cache struct {
	dir string

	hits, misses            atomic.Uint64
	bytesRead, bytesWritten atomic.Uint64
}

// Open returns a cache backed by dir, created if missing.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: no directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Counters snapshots the activity counters.
func (c *Cache) Counters() Counters {
	return Counters{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// Get reads the key's entry. A missing, torn or corrupt entry is a
// miss.
func (c *Cache) Get(k Key) ([]byte, bool) {
	payload, ok := c.readDisk(k)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.bytesRead.Add(uint64(len(payload)))
	return payload, true
}

// Put stores the payload under the key, replacing any entry there.
func (c *Cache) Put(k Key, payload []byte) error {
	if err := c.writeDisk(k, payload); err != nil {
		return err
	}
	c.bytesWritten.Add(uint64(len(payload)))
	return nil
}

// On-disk entry format, designed so any torn write is detectable:
//
//	PZRC1\n
//	<64 hex chars: sha256 of payload>\n
//	<decimal payload length>\n
//	<payload bytes>
//
// Entries are sharded into 256 subdirectories by the key's first byte
// to keep directory listings manageable at large grid counts.
const diskMagic = "PZRC1\n"

func (c *Cache) path(k Key) string {
	h := k.String()
	return filepath.Join(c.dir, h[:2], h+".pzc")
}

func (c *Cache) readDisk(k Key) ([]byte, bool) {
	data, err := os.ReadFile(c.path(k))
	if err != nil {
		return nil, false
	}
	rest, ok := bytes.CutPrefix(data, []byte(diskMagic))
	if !ok {
		return nil, false
	}
	sumLine, rest, ok := bytes.Cut(rest, []byte("\n"))
	if !ok || len(sumLine) != 2*sha256.Size {
		return nil, false
	}
	lenLine, payload, ok := bytes.Cut(rest, []byte("\n"))
	if !ok {
		return nil, false
	}
	n, err := strconv.Atoi(string(lenLine))
	if err != nil || n != len(payload) {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(sumLine) {
		return nil, false
	}
	return payload, true
}

func (c *Cache) writeDisk(k Key, payload []byte) error {
	final := c.path(k)
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Temp file in the destination directory so the rename stays on one
	// filesystem and is atomic: concurrent writers of the same key race
	// benignly (identical content), and readers never observe a partial
	// entry under the final name.
	tmp, err := os.CreateTemp(dir, "."+k.String()+".tmp-*")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	_, werr := fmt.Fprintf(tmp, "%s%x\n%d\n", diskMagic, sum, len(payload))
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), final)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return nil
}
