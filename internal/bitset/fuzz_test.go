package bitset

import (
	"testing"
)

// FuzzSetAgainstModel drives a Set through a fuzz-chosen operation sequence
// and cross-checks every step against a map-based model. Any divergence —
// a bit the model has that the set lost, a miscount, a wrong
// NextSet/NthSet/NthSets answer — fails with the operation trace encoded in the input.
func FuzzSetAgainstModel(f *testing.F) {
	f.Add([]byte{130, 1, 5, 1, 70, 0, 5, 3, 4})
	f.Add([]byte{64, 1, 63, 1, 64, 6, 0, 7, 0})
	f.Add([]byte{255, 8, 0, 1, 17, 2, 17, 9, 0})
	// Bits only in the first and last (partial) words of 200: two empty
	// words between them for the batch select's word search to skip.
	f.Add([]byte{199, 0, 0, 0, 3, 0, 63, 0, 197, 0, 198, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Capacity 1..256 exercises multi-word sets and a ragged last word.
		n := 1 + int(data[0])
		data = data[1:]
		s := New(n)
		other := New(n)
		model := make(map[int]bool)
		otherModel := make(map[int]bool)

		check := func(op string) {
			t.Helper()
			want := 0
			for _, v := range model {
				if v {
					want++
				}
			}
			if got := s.Count(); got != want {
				t.Fatalf("after %s: Count() = %d, model has %d", op, got, want)
			}
			if s.Any() != (want > 0) {
				t.Fatalf("after %s: Any() = %v with %d bits set", op, s.Any(), want)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%10, int(data[i+1])%n
			switch op {
			case 0:
				s.Set(arg)
				model[arg] = true
			case 1:
				s.Clear(arg)
				model[arg] = false
			case 2:
				if got, want := s.Test(arg), model[arg]; got != want {
					t.Fatalf("Test(%d) = %v, model %v", arg, got, want)
				}
			case 3:
				other.Set(arg)
				otherModel[arg] = true
			case 4:
				if err := s.Or(other); err != nil {
					t.Fatal(err)
				}
				for k, v := range otherModel {
					if v {
						model[k] = true
					}
				}
			case 5:
				if err := s.And(other); err != nil {
					t.Fatal(err)
				}
				for k := range model {
					if !otherModel[k] {
						model[k] = false
					}
				}
			case 6:
				if err := s.AndNot(other); err != nil {
					t.Fatal(err)
				}
				for k, v := range otherModel {
					if v {
						model[k] = false
					}
				}
			case 7:
				s.SetAll()
				for k := 0; k < n; k++ {
					model[k] = true
				}
			case 8:
				s.Reset()
				model = make(map[int]bool)
			case 9:
				c := s.Clone()
				if err := s.CopyFrom(c); err != nil {
					t.Fatal(err)
				}
			}
			check("op " + string('0'+op))
		}

		// Full sweep: membership, iteration order, and NthSet agree with
		// the model bit for bit.
		var want []int
		for k := 0; k < n; k++ {
			if model[k] {
				want = append(want, k)
			}
			if s.Test(k) != model[k] {
				t.Fatalf("final Test(%d) = %v, model %v", k, s.Test(k), model[k])
			}
		}
		got := s.Indices()
		if len(got) != len(want) {
			t.Fatalf("Indices() has %d entries, model %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Indices()[%d] = %d, model %d", i, got[i], want[i])
			}
			if nth := s.NthSet(i); nth != want[i] {
				t.Fatalf("NthSet(%d) = %d, model %d", i, nth, want[i])
			}
		}
		if nth := s.NthSet(len(want)); nth != -1 {
			t.Fatalf("NthSet(%d) = %d beyond population, want -1", len(want), nth)
		}
		// Batch select: every rank descending (unsorted), then the fuzz
		// bytes as ranks (repeats), then both out-of-range sides, must
		// each agree with NthSet. A short scratch forces the grow path.
		var ranks []int
		for i := len(want) - 1; i >= 0; i-- {
			ranks = append(ranks, i)
		}
		for _, b := range data {
			ranks = append(ranks, int(b)%(len(want)+1))
		}
		ranks = append(ranks, -1, len(want), len(want)+64)
		sel := append([]int(nil), ranks...)
		scratch := s.NthSets(sel, make([]int32, 1))
		for i, r := range ranks {
			if nth := s.NthSet(r); sel[i] != nth {
				t.Fatalf("NthSets rank %d (list slot %d) = %d, NthSet %d", r, i, sel[i], nth)
			}
		}
		// A reused scratch gives the same answers.
		sel = append(sel[:0], ranks...)
		s.NthSets(sel, scratch)
		for i, r := range ranks {
			if nth := s.NthSet(r); sel[i] != nth {
				t.Fatalf("NthSets with reused scratch, rank %d = %d, NthSet %d", r, sel[i], nth)
			}
		}
		// NextSet chains exactly through the model's indices.
		i, idx := s.NextSet(0), 0
		for ; i >= 0; i, idx = s.NextSet(i+1), idx+1 {
			if idx >= len(want) || i != want[idx] {
				t.Fatalf("NextSet chain diverged at step %d: got %d", idx, i)
			}
		}
		if idx != len(want) {
			t.Fatalf("NextSet chain stopped after %d of %d bits", idx, len(want))
		}
	})
}
