package view

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genView builds a View from a compact description usable by testing/quick.
type viewDesc []uint8

func (viewDesc) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(8)
	d := make(viewDesc, n)
	for i := range d {
		d[i] = uint8(r.Intn(6)) // timestamp 0..5 for location i
	}
	return reflect.ValueOf(d)
}

func (d viewDesc) view() View {
	v := New()
	for l, t := range d {
		if t > 0 {
			v.Set(Loc(l), Time(t))
		}
	}
	return v
}

type logDesc []bool

func (logDesc) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(10)
	d := make(logDesc, n)
	for i := range d {
		d[i] = r.Intn(2) == 0
	}
	return reflect.ValueOf(d)
}

func (d logDesc) log() LogView {
	lv := NewLog()
	for e, in := range d {
		if in {
			lv.Add(EventID(e))
		}
	}
	return lv
}

func TestViewBasics(t *testing.T) {
	v := New()
	if v.Get(3) != 0 {
		t.Fatalf("empty view Get = %d, want 0", v.Get(3))
	}
	v.Set(3, 7)
	if got := v.Get(3); got != 7 {
		t.Fatalf("Get after Set = %d, want 7", got)
	}
	v.Set(3, 5) // must not go backwards
	if got := v.Get(3); got != 7 {
		t.Fatalf("Set must keep maximum; Get = %d, want 7", got)
	}
	v.Set(3, 9)
	if got := v.Get(3); got != 9 {
		t.Fatalf("Get after larger Set = %d, want 9", got)
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d, want 1", v.Len())
	}
}

func TestViewCloneIndependence(t *testing.T) {
	v := New()
	v.Set(1, 2)
	c := v.Clone()
	c.Set(1, 10)
	c.Set(2, 1)
	if v.Get(1) != 2 || v.Get(2) != 0 {
		t.Fatalf("Clone is not independent: v = %v", v)
	}
}

func TestViewJoinIsLub(t *testing.T) {
	f := func(a, b viewDesc) bool {
		va, vb := a.view(), b.view()
		j := va.Join(vb)
		// upper bound
		if !va.Leq(j) || !vb.Leq(j) {
			return false
		}
		// least: j(l) is max of the two everywhere we can probe
		for l := Loc(0); l < 10; l++ {
			m := va.Get(l)
			if vb.Get(l) > m {
				m = vb.Get(l)
			}
			if j.Get(l) != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewJoinCommutativeAssociativeIdempotent(t *testing.T) {
	comm := func(a, b viewDesc) bool {
		return a.view().Join(b.view()).Equal(b.view().Join(a.view()))
	}
	assoc := func(a, b, c viewDesc) bool {
		va, vb, vc := a.view(), b.view(), c.view()
		return va.Join(vb).Join(vc).Equal(va.Join(vb.Join(vc)))
	}
	idem := func(a viewDesc) bool {
		v := a.view()
		return v.Join(v).Equal(v)
	}
	for name, f := range map[string]interface{}{"comm": comm, "assoc": assoc, "idem": idem} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestViewLeqPartialOrder(t *testing.T) {
	refl := func(a viewDesc) bool { v := a.view(); return v.Leq(v) }
	antisym := func(a, b viewDesc) bool {
		va, vb := a.view(), b.view()
		if va.Leq(vb) && vb.Leq(va) {
			return va.Equal(vb)
		}
		return true
	}
	trans := func(a, b, c viewDesc) bool {
		va, vb, vc := a.view(), b.view(), c.view()
		if va.Leq(vb) && vb.Leq(vc) {
			return va.Leq(vc)
		}
		return true
	}
	for name, f := range map[string]interface{}{"refl": refl, "antisym": antisym, "trans": trans} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestViewBottom(t *testing.T) {
	f := func(a viewDesc) bool {
		v := a.view()
		bot := New()
		return bot.Leq(v) && v.Join(bot).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogViewBasics(t *testing.T) {
	lv := NewLog()
	if lv.Has(0) || lv.Len() != 0 {
		t.Fatal("fresh logview must be empty")
	}
	lv.Add(4)
	lv.Add(4)
	lv.Add(1)
	if !lv.Has(4) || !lv.Has(1) || lv.Has(2) {
		t.Fatalf("membership wrong: %v", lv)
	}
	if lv.Len() != 2 {
		t.Fatalf("Len = %d, want 2", lv.Len())
	}
	if es := lv.Events(); len(es) != 2 || es[0] != 1 || es[1] != 4 {
		t.Fatalf("Events = %v, want [1 4]", es)
	}
}

func TestLogViewJoinLattice(t *testing.T) {
	ub := func(a, b logDesc) bool {
		la, lb := a.log(), b.log()
		j := la.Join(lb)
		return la.Subset(j) && lb.Subset(j) && j.Len() <= la.Len()+lb.Len()
	}
	comm := func(a, b logDesc) bool {
		return a.log().Join(b.log()).Equal(b.log().Join(a.log()))
	}
	assoc := func(a, b, c logDesc) bool {
		la, lb, lc := a.log(), b.log(), c.log()
		return la.Join(lb).Join(lc).Equal(la.Join(lb.Join(lc)))
	}
	idem := func(a logDesc) bool { l := a.log(); return l.Join(l).Equal(l) }
	for name, f := range map[string]interface{}{"ub": ub, "comm": comm, "assoc": assoc, "idem": idem} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestLogViewSubsetOrder(t *testing.T) {
	trans := func(a, b, c logDesc) bool {
		la, lb, lc := a.log(), b.log(), c.log()
		if la.Subset(lb) && lb.Subset(lc) {
			return la.Subset(lc)
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogViewCloneIndependence(t *testing.T) {
	a := NewLog()
	a.Add(1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Fatal("Clone is not independent")
	}
}

func TestClockJoinBothComponents(t *testing.T) {
	f := func(av, bv viewDesc, al, bl logDesc) bool {
		a := Clock{V: av.view(), L: al.log()}
		b := Clock{V: bv.view(), L: bl.log()}
		j := a.Join(b)
		return a.Leq(j) && b.Leq(j) &&
			j.V.Equal(a.V.Join(b.V)) && j.L.Equal(a.L.Join(b.L))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockJoinIntoMutatesReceiverOnly(t *testing.T) {
	a := NewClock()
	a.V.Set(0, 1)
	a.L.Add(0)
	b := NewClock()
	b.V.Set(1, 2)
	b.L.Add(1)
	a.JoinInto(b)
	if !a.L.Has(1) || a.V.Get(1) != 2 {
		t.Fatalf("JoinInto missed components: %v", a)
	}
	if b.L.Has(0) || b.V.Get(0) != 0 {
		t.Fatalf("JoinInto mutated argument: %v", b)
	}
}

func TestStringRendering(t *testing.T) {
	v := New()
	v.Set(2, 3)
	v.Set(0, 1)
	if got, want := v.String(), "{l0@1, l2@3}"; got != want {
		t.Fatalf("View.String = %q, want %q", got, want)
	}
	lv := NewLog()
	lv.Add(5)
	lv.Add(2)
	if got, want := lv.String(), "{e2, e5}"; got != want {
		t.Fatalf("LogView.String = %q, want %q", got, want)
	}
}

var (
	sinkLog  LogView
	sinkBool bool
)

// TestLogViewReadsDoNotAllocate: the logical-view operations on the
// machine's hot path share or scan never-written arrays, so none of them
// allocates — including a join whose operand adds nothing.
func TestLogViewReadsDoNotAllocate(t *testing.T) {
	var big, twin, small LogView
	for i := 0; i < 16; i++ {
		big.Add(MakeEventID(1, i))
		twin.Add(MakeEventID(1, i))
		if i%3 == 0 {
			small.Add(MakeEventID(1, i))
		}
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Clone", func() { sinkLog = big.Clone() }},
		{"Has", func() { sinkBool = big.Has(MakeEventID(1, 9)) }},
		{"Subset", func() { sinkBool = small.Subset(big) }},
		{"Equal", func() { sinkBool = big.Equal(twin) }},
		{"JoinInto of a subset", func() { lv := twin; lv.JoinInto(small); sinkLog = lv }},
		{"JoinInto of a superset", func() { lv := small; lv.JoinInto(big); sinkLog = lv }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, n)
		}
	}
}
