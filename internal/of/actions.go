package of

import (
	"fmt"
	"strconv"
)

// ActionType discriminates the flow actions this substrate supports.
type ActionType uint8

// Supported action types. ActionDrop is represented explicitly (an empty
// action list also drops, as in OpenFlow); the explicit form lets the
// permission engine's action filter reason about intent.
const (
	ActionOutput ActionType = iota + 1
	ActionDrop
	ActionSetField
	ActionFlood
)

// String names the action type in permission-language vocabulary.
func (t ActionType) String() string {
	switch t {
	case ActionOutput:
		return "OUTPUT"
	case ActionDrop:
		return "DROP"
	case ActionSetField:
		return "MODIFY"
	case ActionFlood:
		return "FLOOD"
	default:
		return fmt.Sprintf("ACTION(%d)", uint8(t))
	}
}

// Action is one element of a flow-mod or packet-out action list.
type Action struct {
	Type ActionType
	// Port is the output port for ActionOutput (may be a reserved port).
	Port uint16
	// Field and Value describe the rewrite for ActionSetField.
	Field Field
	Value uint64
}

// Output builds an output-to-port action.
func Output(port uint16) Action { return Action{Type: ActionOutput, Port: port} }

// Drop builds an explicit drop action.
func Drop() Action { return Action{Type: ActionDrop} }

// Flood builds a flood-to-all-ports action.
func Flood() Action { return Action{Type: ActionFlood} }

// SetField builds a header-rewrite action.
func SetField(f Field, v uint64) Action { return Action{Type: ActionSetField, Field: f, Value: v} }

// String renders the action for logs.
func (a Action) String() string { return string(appendAction(make([]byte, 0, 24), a)) }

// appendAction appends a to dst as String renders it.
func appendAction(dst []byte, a Action) []byte {
	switch a.Type {
	case ActionOutput:
		switch a.Port {
		case PortController:
			return append(dst, "output:CONTROLLER"...)
		case PortFlood:
			return append(dst, "output:FLOOD"...)
		case PortInPort:
			return append(dst, "output:IN_PORT"...)
		default:
			return strconv.AppendUint(append(dst, "output:"...), uint64(a.Port), 10)
		}
	case ActionDrop:
		return append(dst, "drop"...)
	case ActionFlood:
		return append(dst, "flood"...)
	case ActionSetField:
		dst = append(append(append(dst, "set("...), a.Field.String()...), '=')
		return append(strconv.AppendUint(dst, a.Value, 16), ')')
	default:
		return append(dst, a.Type.String()...)
	}
}

// ActionsString renders an action list compactly.
func ActionsString(actions []Action) string {
	return string(AppendActions(make([]byte, 0, 32), actions))
}

// AppendActions appends the action list to dst as ActionsString renders
// it: "drop" when empty, else the actions comma-separated.
func AppendActions(dst []byte, actions []Action) []byte {
	if len(actions) == 0 {
		return append(dst, "drop"...)
	}
	for i, a := range actions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendAction(dst, a)
	}
	return dst
}

// CloneActions deep-copies an action list so callers can hold it across a
// package boundary without aliasing (see "copy slices at boundaries").
func CloneActions(actions []Action) []Action {
	if actions == nil {
		return nil
	}
	out := make([]Action, len(actions))
	copy(out, actions)
	return out
}
