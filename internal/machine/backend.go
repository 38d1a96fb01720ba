package machine

import "fmt"

// Backend selects which of the machine's two execution engines runs
// the module. Both are observationally identical — counters, cycles,
// outputs and fault outcomes match bit for bit (the two-way
// golden-counters differential sweep in internal/bench proves it) —
// they differ only in speed:
//
//   - BackendCompiled: closure-threaded code compiled per basic block
//     from the pre-decoded form, with per-segment batched accounting.
//     The default and the only fast path.
//   - BackendReference: the seed per-instruction interpreter (step).
//     The executable spec the compiled backend is differentially
//     tested against.
type Backend uint8

// Backends. BackendCompiled is the zero value, so every unset field
// runs the compiled engine.
const (
	BackendCompiled Backend = iota
	BackendReference
)

func (b Backend) String() string {
	switch b {
	case BackendCompiled:
		return "compiled"
	case BackendReference:
		return "reference"
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// UnknownBackendError reports a backend name ParseBackend does not
// accept, so wire and CLI layers can give it a dedicated error code.
type UnknownBackendError struct{ Name string }

func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("machine: unknown backend %q (want compiled or reference)", e.Name)
}

// ParseBackend maps the CLI/wire backend names to the enum. The empty
// string means the default, BackendCompiled.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "compiled":
		return BackendCompiled, nil
	case "reference":
		return BackendReference, nil
	}
	return BackendCompiled, &UnknownBackendError{Name: s}
}
