// Pairs src/core/bad_wall_clock.cc, so only its seeded rule fires.
