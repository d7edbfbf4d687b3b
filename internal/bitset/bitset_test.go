package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Errorf("Count after clear = %d, want 7", got)
	}
}

func TestOutOfRangeIsIgnored(t *testing.T) {
	s := New(10)
	s.Set(-1)
	s.Set(10)
	s.Set(1000)
	if s.Any() {
		t.Error("out-of-range Set modified the set")
	}
	if s.Test(-5) || s.Test(10) {
		t.Error("out-of-range Test returned true")
	}
	s.Clear(99) // must not panic
}

func TestSetAllRespectsCapacity(t *testing.T) {
	s := New(70)
	s.SetAll()
	if got := s.Count(); got != 70 {
		t.Errorf("Count after SetAll = %d, want 70", got)
	}
	s.Reset()
	if s.Any() {
		t.Error("Reset left bits set")
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}

	inter := a.Clone()
	if err := inter.And(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 == 0
		if inter.Test(i) != want {
			t.Fatalf("And: bit %d = %v, want %v", i, inter.Test(i), want)
		}
	}

	uni := a.Clone()
	if err := uni.Or(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := i%2 == 0 || i%3 == 0
		if uni.Test(i) != want {
			t.Fatalf("Or: bit %d = %v, want %v", i, uni.Test(i), want)
		}
	}

	diff := a.Clone()
	if err := diff.AndNot(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := i%2 == 0 && i%3 != 0
		if diff.Test(i) != want {
			t.Fatalf("AndNot: bit %d = %v, want %v", i, diff.Test(i), want)
		}
	}
}

func TestCapacityMismatchErrors(t *testing.T) {
	a, b := New(10), New(20)
	if err := a.And(b); err == nil {
		t.Error("And with mismatched capacity did not error")
	}
	if err := a.Or(b); err == nil {
		t.Error("Or with mismatched capacity did not error")
	}
	if err := a.AndNot(b); err == nil {
		t.Error("AndNot with mismatched capacity did not error")
	}
	if err := a.CopyFrom(b); err == nil {
		t.Error("CopyFrom with mismatched capacity did not error")
	}
}

func TestNextSet(t *testing.T) {
	s := New(200)
	for _, i := range []int{3, 64, 150, 199} {
		s.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 150}, {151, 199}, {199, 199}, {200, -1}, {-5, 3},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(64).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
}

func TestIndicesAndForEachEarlyStop(t *testing.T) {
	s := New(100)
	want := []int{5, 10, 42, 99}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
	var visited int
	s.ForEach(func(int) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Errorf("ForEach early stop visited %d, want 2", visited)
	}
}

func TestNthSet(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 150, 199}
	for _, i := range want {
		s.Set(i)
	}
	for n, w := range want {
		if got := s.NthSet(n); got != w {
			t.Errorf("NthSet(%d) = %d, want %d", n, got, w)
		}
	}
	if got := s.NthSet(len(want)); got != -1 {
		t.Errorf("NthSet past end = %d, want -1", got)
	}
	if got := s.NthSet(-1); got != -1 {
		t.Errorf("NthSet(-1) = %d, want -1", got)
	}
}

func TestNthSetMatchesIndices(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(1 << 16)
		for _, i := range raw {
			s.Set(int(i))
		}
		idx := s.Indices()
		for n, w := range idx {
			if s.NthSet(n) != w {
				return false
			}
		}
		return s.NthSet(len(idx)) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNthSets(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 150, 199}
	for _, i := range want {
		s.Set(i)
	}
	cases := []struct {
		name        string
		set         *Set
		ranks, want []int
	}{
		{"empty set", New(130), []int{0, 1, -1}, []int{-1, -1, -1}},
		{"zero capacity", New(0), []int{0}, []int{-1}},
		{"no ranks", s, nil, nil},
		{"unsorted with repeats", s, []int{4, 0, 2, 2, 1, 3, 0}, []int{199, 3, 65, 65, 64, 150, 3}},
		{"out of range", s, []int{-1, 5, 6}, []int{-1, -1, -1}},
	}
	var scratch []int32
	for _, c := range cases {
		got := append([]int(nil), c.ranks...)
		scratch = c.set.NthSets(got, scratch)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: NthSets(%v) = %v, want %v", c.name, c.ranks, got, c.want)
				break
			}
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := New(64)
	a.Set(5)
	b := a.Clone()
	b.Set(6)
	if a.Test(6) {
		t.Error("mutating clone changed the original")
	}
	if !b.Test(5) {
		t.Error("clone missing original bit")
	}
}

func TestString(t *testing.T) {
	s := New(16)
	s.Set(1)
	s.Set(5)
	if got := s.String(); got != "{1, 5}" {
		t.Errorf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	b.Set(7)
	if err := a.CopyFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Test(3) || !a.Test(7) {
		t.Error("CopyFrom did not overwrite")
	}
	b.Set(9)
	if a.Test(9) {
		t.Error("CopyFrom shares storage")
	}
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	s.SetAll()
	if s.Any() {
		t.Error("zero-capacity set has bits")
	}
	neg := New(-3)
	if neg.Len() != 0 {
		t.Errorf("negative capacity Len = %d, want 0", neg.Len())
	}
}

// Property: Count equals the number of distinct indices set.
func TestCountMatchesDistinctSets(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		distinct := make(map[int]bool)
		for _, i := range idx {
			s.Set(int(i))
			distinct[int(i)] = true
		}
		return s.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan-ish identity |A∪B| + |A∩B| == |A| + |B|.
func TestInclusionExclusion(t *testing.T) {
	f := func(ai, bi []uint8) bool {
		a, b := New(256), New(256)
		for _, i := range ai {
			a.Set(int(i))
		}
		for _, i := range bi {
			b.Set(int(i))
		}
		uni := a.Clone()
		if err := uni.Or(b); err != nil {
			return false
		}
		inter := a.Clone()
		if err := inter.And(b); err != nil {
			return false
		}
		return uni.Count()+inter.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
