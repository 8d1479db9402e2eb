package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignListsEveryMsgType holds DESIGN.md's "Wire messages" table to the
// registry: one row per number up to the last type, a reserved row for each
// empty slot, the type's name in every other.
func TestDesignListsEveryMsgType(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "\n## Wire messages\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Wire messages" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	rows := make(map[string]string) // number → message cell
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, " | ")
		if len(cells) < 2 || !strings.HasPrefix(cells[0], "| ") {
			continue
		}
		rows[strings.TrimPrefix(cells[0], "| ")] = cells[1]
	}
	for typ := 1; typ < len(registry); typ++ {
		want := "reserved"
		if registry[typ].new != nil {
			want = "`" + registry[typ].name + "`"
		}
		if got := rows[fmt.Sprint(typ)]; got != want {
			t.Errorf("type %d: DESIGN.md's row says %q, want %q", typ, got, want)
		}
	}
	if n := len(rows) - 1; n != len(registry)-1 { // less the header
		t.Errorf("DESIGN.md's table has %d rows, want %d", n, len(registry)-1)
	}
}
