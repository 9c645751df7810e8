#ifndef HATT_DEVICE_DEVICE_MAPPERS_HPP
#define HATT_DEVICE_DEVICE_MAPPERS_HPP

/**
 * @file
 * The device-aware mapper kinds ("bonsai", "treespilation") as
 * MapperRegistry strategies. Both consume the "device" option (a
 * DeviceRegistry name, required) and set the deviceAware capability
 * bit, so the registry folds the device into their cache key (and
 * only theirs).
 *
 * registerDeviceMappers() is called from the registry's built-in
 * registration, so the kinds are always present — requesting one
 * without a device option is an InvalidArgument naming the valid
 * devices, not a missing mapper.
 */

#include "mapping/mapper.hpp"

namespace hatt::device {

/** Register "bonsai" and "treespilation" on @p reg. */
void registerDeviceMappers(MapperRegistry &reg);

} // namespace hatt::device

#endif // HATT_DEVICE_DEVICE_MAPPERS_HPP
