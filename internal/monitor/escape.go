package monitor

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bus"
)

// Escape-reference encoding (Section 2.2).
//
// The monitor records addresses only, so the instrumented kernel transfers
// events to the trace as uncached byte reads from odd physical addresses:
//
//   - An event starts with a read of EscBase | code<<1 | 1, an odd address
//     in a range where only OS code lives.
//   - Each operand is sent by shifting the value left one bit and setting
//     the least-significant bit, then byte-reading the resulting address.
//
// Because cache-miss transactions are always block-aligned (even) and
// genuine uncached device accesses use even addresses, odd addresses are
// unambiguous. Operand reads are matched to their event by originating CPU;
// the kernel disables interrupts while emitting a sequence, so the operands
// of one event are never interleaved with another event from the same CPU.

// EscBase is the base of the event-code address range, high in the
// kernel-reserved physical space (6 MB, above every kernel structure but
// below the first user frame) so operand addresses (values up to 2^21,
// hence addresses below 4 MB) can never collide with event addresses.
const EscBase arch.PAddr = 0x0060_0000

// MaxOperand bounds escape operand values; OperandAddr panics above it so
// an operand can never alias an event address.
const MaxOperand = 1 << 21

// Event identifies an instrumentation event type.
type Event uint8

// Instrumentation events. Argument lists are documented per event; see
// eventArity for counts.
const (
	// EvTraceStart marks the beginning of tracing. No args.
	EvTraceStart Event = iota
	// EvEnterOS marks entry to an OS invocation. Args: operation kind
	// (a kernel.OpKind), pid.
	EvEnterOS
	// EvExitOS marks the end of an OS invocation. No args.
	EvExitOS
	// EvUTLB marks one complete UTLB (cheap user TLB refill) fault,
	// which the paper treats separately from OS invocations. Args: pid.
	EvUTLB
	// EvEnterIdle marks the CPU entering the OS idle loop. No args.
	EvEnterIdle
	// EvExitIdle marks the CPU leaving the idle loop. No args.
	EvExitIdle
	// EvRunProc records the process now running on this CPU. Args: pid.
	EvRunProc
	// EvTLBChange records a TLB entry change. Args: entry index,
	// virtual page, physical frame, pid.
	EvTLBChange
	// EvEnterIntr marks entry to an interrupt handler (may nest inside
	// a system call). Args: interrupt kind.
	EvEnterIntr
	// EvExitIntr marks exit from an interrupt handler. No args.
	EvExitIntr
	// EvICacheInval records invalidation of all I-cache blocks of a
	// physical frame (code-page reallocation). Args: frame.
	EvICacheInval
	// EvRoutineEnter records entry to an instrumented OS subroutine,
	// used to attribute data misses to dynamically-allocated
	// structures. Args: routine id.
	EvRoutineEnter
	// EvRoutineExit records exit from the instrumented subroutine.
	// No args.
	EvRoutineExit
	// EvBlockOp records a block operation. Args: kind (0 copy, 1 clear,
	// 2 pfdat traversal), size in bytes.
	EvBlockOp
	// EvPageAlloc records allocation of a physical frame. Args: frame,
	// use kind (0 data, 1 code, 2 kernel).
	EvPageAlloc
	// EvPageFree records freeing of a physical frame. Args: frame.
	EvPageFree

	numEvents
)

// eventArity maps each event to its operand count.
var eventArity = [numEvents]int{
	EvTraceStart:   0,
	EvEnterOS:      2,
	EvExitOS:       0,
	EvUTLB:         1,
	EvEnterIdle:    0,
	EvExitIdle:     0,
	EvRunProc:      1,
	EvTLBChange:    4,
	EvEnterIntr:    1,
	EvExitIntr:     0,
	EvICacheInval:  1,
	EvRoutineEnter: 1,
	EvRoutineExit:  0,
	EvBlockOp:      2,
	EvPageAlloc:    2,
	EvPageFree:     1,
}

// Arity returns the operand count of an event.
func (e Event) Arity() int {
	if e >= numEvents {
		return 0
	}
	return eventArity[e]
}

// String returns the event name.
func (e Event) String() string {
	names := [...]string{
		"TraceStart", "EnterOS", "ExitOS", "UTLB", "EnterIdle",
		"ExitIdle", "RunProc", "TLBChange", "EnterIntr", "ExitIntr",
		"ICacheInval", "RoutineEnter", "RoutineExit", "BlockOp",
		"PageAlloc", "PageFree",
	}
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// EventAddr returns the odd escape address encoding an event code.
func EventAddr(e Event) arch.PAddr { return EscBase | arch.PAddr(e)<<1 | 1 }

// OperandAddr returns the odd escape address encoding an operand value.
// Values must be below MaxOperand so they stay below EscBase.
func OperandAddr(v uint32) arch.PAddr {
	if v >= MaxOperand {
		panic("monitor: escape operand too large")
	}
	return arch.PAddr(v)<<1 | 1
}

// IsEscape reports whether a bus transaction is an instrumentation escape
// (an uncached read of an odd address).
func IsEscape(t bus.Txn) bool {
	return t.Kind == bus.TxnUncached && t.Addr&1 == 1
}

// DecodeEventAddr extracts the event code from an event-start escape
// address, reporting ok=false if the address is an operand (outside the
// event range).
func DecodeEventAddr(a arch.PAddr) (Event, bool) {
	if a&1 != 1 || a < EscBase || a >= EscBase+arch.PAddr(numEvents)<<1 {
		return 0, false
	}
	return Event((a - EscBase) >> 1), true
}

// DecodeOperandAddr recovers the operand value from an operand escape
// address.
func DecodeOperandAddr(a arch.PAddr) uint32 { return uint32(a) >> 1 }

// Record is a decoded trace element: either a miss (a monitored bus
// transaction that is not an escape) or a complete instrumentation event
// with its arguments.
type Record struct {
	Txn     bus.Txn
	IsEvent bool
	Event   Event
	Args    [4]uint32
}

// Decoder converts a raw transaction stream back into misses and events.
// It keeps per-CPU pending-event state, mirroring how the postprocessing
// program matches operand reads to the preceding event-start read from the
// same CPU. The per-CPU slots are a dense slice (not a map) so the
// per-transaction hot path never allocates or hashes.
type Decoder struct {
	pending []pendingEvent // indexed by CPU, grown on demand
	// Malformed counts stray operand reads with no pending event.
	Malformed int
}

type pendingEvent struct {
	rec    Record
	need   int
	got    int
	active bool
}

// NewDecoder returns a fresh decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// slot returns the pending-event slot of a CPU, growing the table on the
// first transaction seen from a higher-numbered CPU.
func (d *Decoder) slot(cpu arch.CPUID) *pendingEvent {
	if int(cpu) >= len(d.pending) {
		grown := make([]pendingEvent, int(cpu)+1)
		copy(grown, d.pending)
		d.pending = grown
	}
	return &d.pending[cpu]
}

// Feed consumes one transaction and returns a completed record, if any.
// Misses complete immediately; events complete when their last operand
// arrives.
func (d *Decoder) Feed(t bus.Txn) (Record, bool) {
	if !IsEscape(t) {
		return Record{Txn: t}, true
	}
	if ev, ok := DecodeEventAddr(t.Addr); ok {
		p := d.slot(t.CPU)
		if p.active {
			// A new event started before the previous one's
			// operands completed: the old event is lost.
			d.Malformed++
		}
		*p = pendingEvent{
			rec:  Record{Txn: t, IsEvent: true, Event: ev},
			need: ev.Arity(),
		}
		if p.need == 0 {
			return p.rec, true
		}
		p.active = true
		return Record{}, false
	}
	// Operand read.
	p := d.slot(t.CPU)
	if !p.active {
		d.Malformed++
		return Record{}, false
	}
	p.rec.Args[p.got] = DecodeOperandAddr(t.Addr)
	p.got++
	if p.got == p.need {
		p.active = false
		return p.rec, true
	}
	return Record{}, false
}
