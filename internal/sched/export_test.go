package sched

import (
	"reflect"
	"strings"

	"gridqr/internal/mpi"
)

// scheduleCacheEntries counts the compiled-schedule (core.scheduleFor)
// entries and any separate stage-leveling entries ("core.stages|" keys;
// core now compiles the leveling into the schedule entry, so none are
// expected) in a world's shared cache. The cache is private to mpi.World and has no API for its size,
// so this test-only view reads it by reflection. Call it only while no
// rank runs (after Server.Close).
func scheduleCacheEntries(w *mpi.World) (schedules, stages int) {
	for _, k := range reflect.ValueOf(w).Elem().FieldByName("shared").MapKeys() {
		switch key := k.String(); {
		case strings.HasPrefix(key, "core.sched|"):
			schedules++
		case strings.HasPrefix(key, "core.stages|"):
			stages++
		}
	}
	return schedules, stages
}
