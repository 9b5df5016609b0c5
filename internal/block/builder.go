package block

// Builder packs a key-ordered stream of records into blocks of at most
// capacity records each. Merges and compactions feed records through a
// Builder and collect the finished blocks.
type Builder struct {
	capacity int
	buf      []Record
	out      []*Block
}

// NewBuilder returns a builder producing blocks of the given capacity.
func NewBuilder(capacity int) *Builder {
	if capacity < 1 {
		panic("block: builder capacity must be >= 1")
	}
	return &Builder{capacity: capacity}
}

// Add appends a record, flushing a full block when the buffer reaches
// capacity. Keys must arrive in strictly increasing order.
func (bb *Builder) Add(r Record) {
	bb.buf = append(bb.buf, r)
	if len(bb.buf) == bb.capacity {
		bb.flush()
	}
}

// Buffered returns the number of records currently buffered (not yet in a
// finished block).
func (bb *Builder) Buffered() int { return len(bb.buf) }

// FlushPartial finishes the current buffer into a (possibly non-full)
// block. It is a no-op when the buffer is empty. The block-preserving merge
// calls this before reusing an input block, so that preserved blocks keep
// their position in key order.
func (bb *Builder) FlushPartial() {
	if len(bb.buf) > 0 {
		bb.flush()
	}
}

// AppendExisting places an already-built block (a preserved input block)
// after everything emitted so far. The caller guarantees key order.
func (bb *Builder) AppendExisting(b *Block) {
	if len(bb.buf) > 0 {
		panic("block: AppendExisting with non-empty buffer; call FlushPartial first")
	}
	bb.out = append(bb.out, b)
}

// Finish flushes any remaining records and returns the finished blocks.
// The builder must not be reused afterwards.
func (bb *Builder) Finish() []*Block {
	bb.FlushPartial()
	return bb.out
}

func (bb *Builder) flush() {
	rs := make([]Record, len(bb.buf))
	copy(rs, bb.buf)
	bb.out = append(bb.out, New(rs))
	bb.buf = bb.buf[:0]
}
