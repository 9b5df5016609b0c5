package policy

// Granularity is the axis deciding how much of a firing level moves: the
// paper's merge policies (Full, RR, ChooseBest, TestMixed, Mixed) are
// exactly granularity choices, stripped of the preserve flag (now the
// Movement axis) and of the layout they run under.
type Granularity interface {
	// Name identifies the granularity in reports ("Full", "ChooseBest", ...).
	Name() string
	// Decide chooses the merge from level `from` into `from+1`.
	Decide(v View, from int) Decision
}

// Spec names one point of the compaction design space: a choice per axis.
// Zero-value fields mean the paper's defaults — level-overflow trigger,
// full-level granularity, block-preserving movement, leveling layout.
type Spec struct {
	Trigger     Trigger
	Granularity Granularity
	Movement    Movement
	Layout      Layout
}

// Compose compiles a Spec into the Policy the tree runs. The five legacy
// constructors (NewFull, NewRR, ...) are thin wrappers over Compose with
// the leveling layout, so their leveling behavior — and the BlocksWritten
// goldens — is unchanged by composition.
func Compose(s Spec) *Compiled {
	if s.Trigger == nil {
		s.Trigger = LevelOverflow{}
	}
	if s.Granularity == nil {
		s.Granularity = &Full{}
	}
	return &Compiled{trigger: s.Trigger, gran: s.Granularity, move: s.Movement, layout: s.Layout.withDefaults()}
}

// Compiled is a composed policy: it carries one choice per axis and
// implements Policy by delegating window selection to its granularity.
// The tree reads the trigger and layout axes through LayoutOf/TriggerOf
// rather than asserting on this type (enforced by lsmlint's layoutassert
// rule outside this package).
type Compiled struct {
	trigger Trigger
	gran    Granularity
	move    Movement
	layout  Layout
}

// Name implements Policy. Leveling keeps the legacy names byte-identical
// ("ChooseBest", "RR-P", ...); non-leveling layouts are tagged
// ("Full@tiering(4)").
func (c *Compiled) Name() string {
	n := c.gran.Name() + suffix(c.move == PreserveBlocks)
	if c.layout.Kind != Leveling {
		n += "@" + c.layout.String()
	}
	return n
}

// Preserve implements Policy.
func (c *Compiled) Preserve() bool { return c.move == PreserveBlocks }

// Decide implements Policy.
func (c *Compiled) Decide(v View, from int) Decision { return c.gran.Decide(v, from) }

// LevelsGrew forwards tree growth to the granularity when it keeps
// per-level state (RR's cursors).
func (c *Compiled) LevelsGrew(oldBottom int) {
	if n, ok := c.gran.(interface{ LevelsGrew(int) }); ok {
		n.LevelsGrew(oldBottom)
	}
}

// Trigger returns the trigger axis.
func (c *Compiled) Trigger() Trigger { return c.trigger }

// Granularity returns the granularity axis.
func (c *Compiled) Granularity() Granularity { return c.gran }

// Movement returns the movement axis.
func (c *Compiled) Movement() Movement { return c.move }

// Layout returns the layout axis.
func (c *Compiled) Layout() Layout { return c.layout }

// WithLayout returns a copy of the policy running under a different
// layout; trigger, granularity, and movement are shared.
func (c *Compiled) WithLayout(l Layout) *Compiled {
	out := *c
	out.layout = l.withDefaults()
	return &out
}

// Relayout returns p running under layout l. Every engine policy is a
// Compiled; a foreign Policy implementation has no layout axis to change
// and is returned unmodified. Callers outside this package must use this
// (not a type assertion on Compiled) — lsmlint enforces it.
func Relayout(p Policy, l Layout) Policy {
	if c, ok := p.(*Compiled); ok {
		return c.WithLayout(l)
	}
	return p
}

// LayoutOf returns the layout axis of a policy: the compiled layout for
// composed policies, leveling for anything else. Callers outside this
// package must use this (not a type assertion on Compiled) so layout
// remains an axis, not a type check — lsmlint enforces it.
func LayoutOf(p Policy) Layout {
	if c, ok := p.(*Compiled); ok {
		return c.layout
	}
	return Layout{}
}

// TriggerOf returns the trigger axis of a policy, LevelOverflow for
// non-composed policies.
func TriggerOf(p Policy) Trigger {
	if c, ok := p.(*Compiled); ok {
		return c.trigger
	}
	return LevelOverflow{}
}

// AsMixed unwraps the Mixed granularity from a policy, if it has one —
// the tuning surface (tune.go, internal/learn) adjusts τ/β through it.
func AsMixed(p Policy) (*Mixed, bool) {
	if c, ok := p.(*Compiled); ok {
		m, ok := c.gran.(*Mixed)
		return m, ok
	}
	return nil, false
}

// AsRR unwraps the RR granularity from a policy, if it has one — used by
// the experiment harness to read RR's merge cursor.
func AsRR(p Policy) (*RR, bool) {
	if c, ok := p.(*Compiled); ok {
		r, ok := c.gran.(*RR)
		return r, ok
	}
	return nil, false
}
