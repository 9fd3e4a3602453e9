// A counting global allocator for tests that measure live heap.
//
// counting_heap.cpp replaces the global operator new and delete: every
// allocation carries a 16-byte header with its requested size, so the live
// byte count and its high-water mark are exact and, at one thread,
// repeatable to the byte. Only a test executable that compiles that file in
// gets the replacement (CMakeLists.txt adds it to one target); the library
// never does, and lib-no-test-oracles fails if it is linked back in.
#pragma once

#include <cstddef>

namespace dsaudit::counting_heap {

/// Bytes currently allocated through the global operator new (requested
/// sizes, headers not counted).
std::size_t live_bytes();

/// The largest live_bytes() since the last reset_high_water() (or the start
/// of the process).
std::size_t high_water_bytes();

/// Starts a new high-water measurement at the current live_bytes().
void reset_high_water();

}  // namespace dsaudit::counting_heap
