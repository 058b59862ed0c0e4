package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the WAL decoder and holds it
// to the recovery contract:
//
//   - never panic, whatever the input, in the decoder or in the fold
//     that Open runs over each decoded record (an error is allowed);
//   - decode exactly the valid frame prefix: re-framing the returned
//     payloads reproduces input[:validLen] byte-for-byte, and the
//     prefix rescans to the same result (the decode is a fixpoint);
//   - recovery succeeds from the surviving prefix: OpenWAL on the
//     image repairs the torn tail, returns the same payloads, and the
//     repaired log accepts appends.
//
// The on-disk corpus (testdata/fuzz/FuzzWALDecode) pins the cases the
// ISSUE calls out: a clean multi-record log, a truncated tail, a
// flipped CRC byte, and a mid-record torn write.
func FuzzWALDecode(f *testing.F) {
	// Canonical images as in-code seeds, alongside the on-disk corpus.
	rec1, err := EncodeRecord(Record{LSN: 1, Kind: KindBudgetSpend, Eps: 0.5, Spent: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	rec2, err := EncodeRecord(Record{LSN: 2, Kind: KindRoundBegin, Round: 3})
	if err != nil {
		f.Fatal(err)
	}
	clean := AppendFrame(AppendFrame(nil, rec1), rec2)
	batch, err := EncodeRecord(Record{LSN: 3, Kind: KindSkillBatch, Workers: []string{"a", "b"}, Accs: []float64{0.8, 0.9}})
	if err != nil {
		f.Fatal(err)
	}
	mismatched, err := EncodeRecord(Record{LSN: 3, Kind: KindSkillBatch, Workers: []string{"a", "b"}, Accs: []float64{0.8}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	flipped := append([]byte(nil), clean...)
	flipped[5] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(frameImage(rec1, rec2, batch))
	f.Add(frameImage(rec1, rec2, mismatched))

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, n := ScanFrames(data)
		if n < 0 || n > len(data) {
			t.Fatalf("validLen %d outside [0,%d]", n, len(data))
		}

		// Fixpoint: the valid prefix decodes to itself.
		again, n2 := ScanFrames(data[:n])
		if n2 != n || len(again) != len(payloads) {
			t.Fatalf("prefix rescan diverged: %d/%d frames, %d/%d bytes",
				len(again), len(payloads), n2, n)
		}

		// Canonical: re-framing the payloads reproduces the prefix.
		var reframed []byte
		var st State
		for _, p := range payloads {
			if len(p) == 0 || len(p) > MaxRecordBytes {
				t.Fatalf("decoded payload of %d bytes escapes the record bound", len(p))
			}
			reframed = AppendFrame(reframed, p)
			// Neither decoding nor folding may panic on CRC-valid garbage.
			if rec, err := DecodeRecord(p); err == nil {
				_ = st.apply(rec, true)
			}
		}
		if !bytes.Equal(reframed, data[:n]) {
			t.Fatalf("re-framed prefix (%d bytes) != input prefix (%d bytes)", len(reframed), n)
		}

		// Recovery: OpenWAL on the raw image repairs to the same prefix
		// and stays usable.
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recovered, err := OpenWAL(path, false)
		if err != nil {
			t.Fatalf("recovery failed on surviving prefix: %v", err)
		}
		if len(recovered) != len(payloads) {
			t.Fatalf("recovery returned %d payloads, scan %d", len(recovered), len(payloads))
		}
		for i := range recovered {
			if !bytes.Equal(recovered[i], payloads[i]) {
				t.Fatalf("recovered payload %d differs", i)
			}
		}
		if w.TornBytes != int64(len(data)-n) {
			t.Fatalf("TornBytes %d, want %d", w.TornBytes, len(data)-n)
		}
		if err := w.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
